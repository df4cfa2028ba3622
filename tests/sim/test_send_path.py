"""The simulator's send path: fan-out, pricing and retransmission costs.

A port looks each ``(type, presence, initiator)`` header up once, prices
its token once with :func:`token_cost`, and hands the priced cost to the
transport.  A broadcast goes through one send-to-many hook, which the
port overrides and every other :class:`ProcessContext` inherits; both
must send exactly the same messages in the same order.
"""

import dataclasses
import gc
import random

import pytest

from repro.machines.message import (
    Message, MessageToken, ParamPresence, QueueTag, token_cost,
    PP_NONE, PP_USER_INFO, PP_WRITE, R_GNT, R_PER, W_INV, UPD,
)
from repro.protocols.base import ProcessContext
from repro.sim import DSMSystem, RunConfig
from repro.sim.channel import Network
from repro.sim.engine import EventScheduler
from repro.sim.faults import CrashWindow, FaultPlan
from repro.sim.metrics import Metrics
from repro.sim.partition import LinkFault, PartitionPlan
from repro.sim.reliable import ReliabilityConfig, ReliableNetwork

from .util import _Clock, fabric, transmit

S, P = 100.0, 30.0
N = 4


def _record(msg):
    token = msg.token
    return (msg.dst, token.type, token.parameter_presence, msg.op_id,
            msg.payload, token.operation_initiator)


class RecordingContext(ProcessContext):
    """An in-memory fabric that keeps the default fan-out hook."""

    def __init__(self, node_id, all_nodes, sequencer_id, obj=1):
        self.node_id = node_id
        self.all_nodes = all_nodes
        self.sequencer_id = sequencer_id
        self.obj = obj
        self.sent = []

    def send(self, dst, msg_type, presence, op_id, payload=None,
             initiator=None):
        self.sent.append((dst, msg_type, presence, op_id, payload,
                          self.node_id if initiator is None else initiator))

    def complete(self, op, value=None):
        pass

    def disable_local_queue(self):
        pass

    def enable_local_queue(self):
        pass


@pytest.fixture
def priced_sends(monkeypatch):
    """Every ``(msg, cost)`` the plain fabric sent, in order.

    :meth:`Network.send` records its message and cost;
    :meth:`Network.fan_out` records each member as the message it sends
    and the cost it charges that member (nothing for a self-send).
    Patched on the class before a system is built, so the bound methods
    each port holds are the recording ones.
    """
    sent = []
    send, fan_out = Network.send, Network.fan_out

    def recording_send(net, msg, cost):
        sent.append((msg, cost))
        return send(net, msg, cost)

    def recording_fan_out(net, token, src, dsts, payload, op_id, cost):
        sent.extend((Message(token, src, dst, payload, op_id),
                     0.0 if dst == src else cost) for dst in dsts)
        fan_out(net, token, src, dsts, payload, op_id, cost)

    monkeypatch.setattr(Network, "send", recording_send)
    monkeypatch.setattr(Network, "fan_out", recording_fan_out)
    return sent


def _system():
    return DSMSystem("write_through", N=N, M=2, S=S, P=P)


@pytest.mark.parametrize("node_id", [N + 1, 2], ids=["sequencer", "client"])
@pytest.mark.parametrize("excluded", [[], [3], sorted({4, 1, 3})],
                         ids=["none", "writer", "sorted-set"])
@pytest.mark.parametrize("header", [
    (W_INV, PP_NONE, None, None),
    (UPD, PP_WRITE, {"value": 7}, 3),
    (R_GNT, PP_USER_INFO, {"value": 1}, 1),
], ids=["W-INV", "UPD", "R-GNT"])
def test_port_fan_out_matches_the_default_fan_out(priced_sends, node_id,
                                                   excluded, header):
    msg_type, presence, payload, initiator = header
    system = _system()
    port = system.nodes[node_id].ports[2]
    reference = RecordingContext(node_id, port.all_nodes, port.sequencer_id,
                                 obj=2)
    width = port.broadcast_except(excluded, msg_type, presence, 42,
                                  payload, initiator)
    assert reference.broadcast_except(excluded, msg_type, presence, 42,
                                      payload, initiator) == width
    assert [_record(msg) for msg, _ in priced_sends] == reference.sent
    assert width == len(reference.sent) > 0
    assert all(msg.token.object_name == 2 for msg, _ in priced_sends)


#: at S = 0.1 a user-information token costs 1.1, and seven such members
#: add up to 7.699999999999999 one at a time, but 1.1 * 7 is
#: 7.700000000000001
_TENTH = 0.1


@pytest.mark.parametrize("dsts", [[1, 2, 3, 4, 5, 6, 7],
                                  [3, 8, 2, 3, 1, 5, 6, 7, 8]],
                         ids=["clients", "self-and-repeat"])
@pytest.mark.parametrize("op_id", [1, 2, 3],
                         ids=["registered", "unregistered", "redirected"])
def test_a_fan_out_charges_the_ledger_as_its_members_would(op_id, dsts):
    """One fan-out from node 8 leaves the ledger and the trace exactly as
    one charge per member would: the same sequential float sums on the
    operation (1), the unattributed total (2, never registered) or the
    trigger's cache share (3, an eject redirected onto 1), the same
    signature, and the same send events in member order, with the members
    sent to node 8 itself free."""
    from repro.obs.trace import Tracer

    token = MessageToken(UPD, 8, 1, QueueTag.DISTRIBUTED, PP_USER_INFO)
    cost = token_cost(PP_USER_INFO, _TENTH, P)
    outcomes = []
    for fan_out in (True, False):
        sched = EventScheduler()
        metrics = Metrics()
        metrics.tracer = tracer = Tracer(clock=sched)
        net = Network(sched, metrics=metrics)
        net.tracer = tracer
        for node in range(1, 9):
            net.attach(node, lambda m: None)
        metrics.register_op(1, 8, "write", 1, 0.0)
        metrics.redirect_op(3, 1)
        if fan_out:
            net.fan_out(token, 8, dsts, None, op_id, cost)
        else:
            for dst in dsts:
                net.send(Message(token, 8, dst, None, op_id),
                         0.0 if dst == 8 else cost)
        sched.run()
        rec = metrics.op(1)
        outcomes.append((
            rec.cost, rec.cache_cost, rec.signature,
            metrics.unattributed_cost, metrics.cache.cost,
            [event.to_dict() for event in tracer.span(1).events],
            [event.to_dict() for event in tracer.system_events],
            tracer.dropped_events, net.messages_sent))
    assert outcomes[0] == outcomes[1]
    (op_cost, cache_cost, signature, unattributed, cache_total, events,
     system_events, _dropped, sent) = outcomes[0]
    assert sent == len(dsts)
    charged = unattributed if op_id == 2 else op_cost
    assert charged == 7.699999999999999 != cost * 7
    assert cache_cost == cache_total == (charged if op_id == 3 else 0.0)
    assert len(signature) == (7 if op_id == 1 else 0)
    sends = events if op_id != 2 else system_events
    assert [(e["kind"], e["dst"]) for e in sends
            if e["kind"] != "deliver"] == [
        ("send" if op_id != 3 else "evict", dst) for dst in dsts
        if dst != 8]


@pytest.mark.parametrize("retry, hedge", [(False, False), (True, False),
                                          (False, True)])
def test_port_unordered_fan_out_matches_the_default(priced_sends, retry,
                                                     hedge):
    system = _system()
    port = system.nodes[2].ports[1]
    reference = RecordingContext(2, port.all_nodes, port.sequencer_id)
    targets = [5, 1, 2, 4]
    for ctx in (port, reference):
        ctx.send_many_unordered(targets, UPD, PP_WRITE, 42, {"gen": 1},
                                None, retry, hedge)
    assert [_record(msg) for msg, _ in priced_sends] == reference.sent
    assert [cost for _, cost in priced_sends] == [
        token_cost(PP_WRITE, S, P)] * 2 + [0.0, token_cost(PP_WRITE, S, P)]


def test_a_fault_free_broadcast_is_one_scheduler_entry():
    system = _system()
    scheduler = system.scheduler
    port = system.nodes[N + 1].ports[1]
    width = port.broadcast_except([], W_INV, PP_NONE, 42)
    port.send_many_unordered([1, 2], W_INV, PP_NONE, 43)
    assert len(scheduler._lane) == 2 and not scheduler._heap
    assert len(scheduler) == width + 2
    assert scheduler.step() is True and scheduler.executed == width


def test_a_reliable_broadcast_posts_each_message():
    system = DSMSystem("write_through", N=N, M=2, S=S, P=P,
                       config=RunConfig(reliability=ReliabilityConfig()))
    scheduler = system.scheduler
    queued = len(scheduler)
    width = system.nodes[N + 1].ports[1].broadcast_except(
        [], W_INV, PP_NONE, 42)
    assert len(scheduler) > queued + width  # deliveries plus their timers
    assert scheduler.step() is True and scheduler.executed == 1


@pytest.mark.parametrize("presence", list(ParamPresence))
def test_every_port_send_charges_token_cost(priced_sends, presence):
    system = _system()
    port = system.nodes[1].ports[1]
    expected = token_cost(presence, S, P)
    port.send(N + 1, R_PER, presence, 1)
    port.send_unordered(2, R_PER, presence, 1)
    port.send_many([2, 3], R_PER, presence, 1)
    assert [cost for _, cost in priced_sends] == [expected] * 4
    assert [msg.token.parameter_presence for msg, _ in priced_sends] == [
        presence] * 4


@pytest.mark.parametrize("presence", list(ParamPresence))
def test_a_port_self_send_charges_nothing(priced_sends, presence):
    system = _system()
    port = system.nodes[2].ports[1]
    port.send(2, R_PER, presence, 1)
    port.send_unordered(2, R_PER, presence, 1)
    port.send_many([1, 2], R_PER, presence, 1)
    assert [(msg.dst, cost) for msg, cost in priced_sends] == [
        (2, 0.0), (2, 0.0), (1, token_cost(presence, S, P)), (2, 0.0)]


def _msg(src, dst, presence=PP_NONE, op_id=1):
    token = MessageToken(R_PER, src, 1, QueueTag.DISTRIBUTED, presence)
    return Message(token, src, dst, op_id=op_id)


def _reliable(faults=None, config=None):
    metrics = Metrics()
    metrics.register_op(1, 1, "write", 1, 0.0)
    sched = EventScheduler()
    net = ReliableNetwork(sched, metrics=metrics, faults=faults,
                          config=config)
    for node in (1, 2):
        net.attach(node, lambda m: None)
    return sched, net, metrics


@pytest.mark.parametrize("unordered", [False, True])
def test_retransmissions_charge_the_first_attempts_cost(monkeypatch,
                                                        unordered):
    charged = []
    monkeypatch.setattr(
        Metrics, "record_reliability_cost",
        lambda self, op_id, cost, kind="reliability":
            charged.append((op_id, cost, kind)))
    sched, net, metrics = _reliable(
        faults=FaultPlan(seed=0, drop_rate=1.0),
        config=ReliabilityConfig(timeout=2.0, max_retries=3))
    cost = token_cost(PP_WRITE, S, P)
    send = net.send_unordered if unordered else net.send
    assert send(_msg(1, 2, PP_WRITE), cost) == cost
    sched.run()
    assert metrics.reliability.retransmissions == 3
    assert charged == [(1, cost, "retransmit")] * 3


def _count_timeline_calls(monkeypatch):
    """Count every :class:`FaultTimeline` built and every lookup made."""
    from repro.sim import faults

    calls = {"built": 0, "at": 0}
    build, at = faults.FaultTimeline.__init__, faults.FaultTimeline.at

    def counted_build(self, *args):
        calls["built"] += 1
        build(self, *args)

    def counted_at(self, now):
        calls["at"] += 1
        return at(self, now)

    monkeypatch.setattr(faults.FaultTimeline, "__init__", counted_build)
    monkeypatch.setattr(faults.FaultTimeline, "at", counted_at)
    return calls


@pytest.mark.parametrize("faults, expected", [
    (None, False), (FaultPlan(), False),
    (FaultPlan(seed=1, jitter=1.0), True)])
def test_only_a_faulty_fabric_builds_a_timeline(faults, expected):
    net = ReliableNetwork(EventScheduler(), faults=faults)
    assert (net.timeline is not None) == expected


def test_plain_star_write_send_makes_no_timeline_call(monkeypatch):
    """Pay for what you use: a plain star-write run neither builds nor
    reads a fault timeline, while a faulty run reads it on every send."""
    from repro.core.parameters import Deviation, WorkloadParams
    from repro.workloads.synthetic import SyntheticWorkload

    calls = _count_timeline_calls(monkeypatch)
    params = WorkloadParams(N=N, p=0.3, a=2, xi=0.1, S=S, P=P)
    workload = SyntheticWorkload(params, Deviation.WRITE, M=2)
    plain = DSMSystem("write_through", N=N, M=2, S=S, P=P)
    result = plain.run_workload(workload, RunConfig(ops=300, seed=1))
    assert result.messages > 0
    assert calls == {"built": 0, "at": 0}

    config = RunConfig(ops=300, seed=1,
                       faults=FaultPlan(seed=1, drop_rate=0.1))
    faulty = DSMSystem("write_through", N=N, M=2, S=S, P=P, config=config)
    faulty.run_workload(workload)
    assert calls["built"] == 1
    assert calls["at"] >= faulty.network.messages_sent


@pytest.mark.parametrize("jitter", [1.5, 2.0, 0.3])
@pytest.mark.parametrize("kind", ["faults", "partitions"])
def test_scaled_draw_is_the_uniform_draw(kind, jitter):
    """``j * rng.random()`` is ``rng.uniform(0.0, j)`` bit for bit, so
    the wire draws jitter without the ``uniform`` call: checked on the
    global plan's stream and on the link plan's, then through the wire,
    where each delay is the latency plus that draw."""
    plan = (FaultPlan(seed=7, jitter=jitter) if kind == "faults" else
            PartitionPlan(seed=7, links=[
                LinkFault(1, 2, drop_rate=0.0, jitter=jitter)]))
    stream = dataclasses.replace(plan)._rng
    ref = random.Random(7)
    assert [jitter * stream.random() for _ in range(1000)] == [
        ref.uniform(0.0, jitter) for _ in range(1000)]
    net = fabric(**{kind: plan})
    ref = random.Random(7)
    for _ in range(50):
        assert transmit(net, 1, 2, 0.0).delays == (
            1.0 + ref.uniform(0.0, jitter),)


def test_a_fault_free_transport_posts_every_frame_latency_ahead():
    sched = EventScheduler()
    net = ReliableNetwork(sched, latency=2.5)
    posted = []
    post = net._post

    def record(delay, receiver, item):
        posted.append((sched.now, delay))
        post(delay, receiver, item)

    net._post = record
    got = []
    for node in (1, 2, 3):
        net.attach(node, lambda m: got.append((sched.now, m.dst)))
    net.send(_msg(1, 2), 1.0)
    net.send_unordered(_msg(1, 3), 1.0)
    net.send(_msg(2, 2), 0.0)
    sched.run()
    # two data frames, their ack and dack, and one intra-node post
    assert len(posted) == 5 == net.messages_sent
    assert {delay for _now, delay in posted} == {2.5}
    assert sorted(got) == [(2.5, 2), (2.5, 2), (2.5, 3)]
    assert net.in_flight == 0 and len(sched) == 0


class _NoDispatch(str):
    """A frame kind that fails any comparison: reading it to dispatch
    would raise."""

    def __eq__(self, other):
        raise AssertionError("the frame's kind was compared")

    __hash__ = str.__hash__


def test_a_data_arrival_is_one_receiver_call(monkeypatch):
    """The wire posts a data frame straight to the data receiver: its
    arrival calls that one receiver, which never reads the frame's
    kind."""
    calls = {}
    for name in ("_on_data", "_on_ack", "_on_dgram", "_on_dack"):
        original = getattr(ReliableNetwork, name)

        def counted(self, frame, _original=original, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, frame)

        monkeypatch.setattr(ReliableNetwork, name, counted)

    clock = _Clock()
    posted = []
    clock.post = lambda delay, receiver, item: posted.append(
        (receiver, item))
    net = ReliableNetwork(clock)
    got = []
    for node in (1, 2):
        net.attach(node, got.append)
    net.send(_msg(1, 2), 1.0)
    (receiver, frame), = posted
    assert calls == {}
    arrived = dataclasses.replace(frame, kind=_NoDispatch("data"))
    receiver(arrived)
    assert calls == {"_on_data": 1}
    assert [m.dst for m in got] == [2]
    # the arrival acked the frame: one post, of the received frame
    # itself, to the ack receiver
    (ack_receiver, ack), = posted[1:]
    assert ack is arrived
    assert ack_receiver.__func__ is ReliableNetwork._on_ack


def test_a_faulty_transmission_reads_the_timeline_once(monkeypatch):
    """On a faulty, untraced wire each send and each retransmission
    reads one timeline segment, and each arrival at a receiver reads one
    and reuses it for its ack.  An ack is the received frame posted back,
    so the only frames built are the sends' own, and an untraced arrival
    calls the node's handler without the traced route."""
    from repro.sim import reliable

    calls = _count_timeline_calls(monkeypatch)
    kinds = []
    arrivals = {}
    build = reliable.Frame.__init__

    def counted_frame(self, kind, *args, **kwargs):
        kinds.append(kind)
        build(self, kind, *args, **kwargs)

    monkeypatch.setattr(reliable.Frame, "__init__", counted_frame)
    for name in ("_on_data", "_on_ack", "_on_dgram", "_on_dack",
                 "_deliver"):
        original = getattr(ReliableNetwork, name)

        def counted(self, item, _original=original, _name=name):
            arrivals[_name] = arrivals.get(_name, 0) + 1
            return _original(self, item)

        monkeypatch.setattr(ReliableNetwork, name, counted)

    sched = EventScheduler()
    plan = FaultPlan(seed=5, drop_rate=0.2, duplicate_rate=0.1, jitter=1.5,
                     crashes=[CrashWindow(3, 20.0, 60.0)])
    net = ReliableNetwork(sched, metrics=Metrics(), faults=plan,
                          config=ReliabilityConfig(timeout=4.0,
                                                   max_retries=20))
    got = []
    for node in (1, 2, 3):
        net.attach(node, got.append)
    rng = random.Random(2)
    sends = 0
    for step in range(200):
        src, dst = rng.sample((1, 2, 3), 2)
        send = net.send if step % 3 else net.send_unordered
        # a crashed node issues nothing (the test's own reads)
        calls["at"] -= 1
        if src not in net.timeline.at(sched.now)[0]:
            send(_msg(src, dst), 1.0)
            sends += 1
        sched.run(until=lambda t=sched.now + 0.5: sched.now >= t)
    sched.run()
    stats = net.metrics.reliability
    assert stats.drops and stats.duplicates_injected and stats.acks
    assert stats.retransmissions and stats.sends_suppressed
    assert stats.delivery_failures == stats.dgram_abandoned == 0
    # every message was delivered; no frame was built for an ack
    assert len({id(m) for m in got}) == sends
    assert kinds.count("data") + kinds.count("dgram") == len(kinds) == sends
    assert "_deliver" not in arrivals
    assert arrivals["_on_ack"] and arrivals["_on_dack"]
    assert calls["at"] == (sends + stats.retransmissions
                           + sum(arrivals.values()))


def test_a_settled_pending_send_is_freed_by_reference_counting():
    """A pending send is its own timer callback only while it is armed:
    once it is acked, abandoned, cancelled as a hedge loser or voided by
    a view change, no reference cycle keeps it alive."""
    from repro.sim.reliable import _PendingSend

    def pending_sends():
        return sum(type(obj) is _PendingSend for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        sched, net, metrics = _reliable(
            faults=FaultPlan(seed=3, drop_rate=0.5),
            config=ReliabilityConfig(timeout=2.0, max_retries=2))
        for step in range(40):
            src, dst = (1, 2) if step % 2 else (2, 1)
            net.send(_msg(src, dst), 1.0)
            net.send_unordered(_msg(dst, src, op_id=step % 3), 1.0)
            sched.run(until=lambda t=sched.now + 1.0: sched.now >= t)
        assert net.cancel_dgrams(1, 0) and net.in_flight
        net.advance_epoch()
        for step in range(40):
            net.send(_msg(1, 2), 1.0)
            net.send_unordered(_msg(2, 1), 1.0)
        sched.run()
        stats = metrics.reliability
        assert stats.acks and stats.delivery_failures
        assert stats.dgram_abandoned
        assert net.in_flight == 0 and not net._dgram_pending
        assert pending_sends() == 0
    finally:
        gc.enable()
