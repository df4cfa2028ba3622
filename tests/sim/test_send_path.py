"""The simulator's send path: fan-out, pricing and retransmission costs.

A port looks each ``(type, presence, initiator)`` header up once, prices
its token once with :func:`token_cost`, and hands the priced cost to the
transport.  A broadcast goes through one send-to-many hook, which the
port overrides and every other :class:`ProcessContext` inherits; both
must send exactly the same messages in the same order.
"""

import pytest

from repro.machines.message import (
    Message, MessageToken, ParamPresence, QueueTag, token_cost,
    PP_NONE, PP_USER_INFO, PP_WRITE, R_GNT, R_PER, W_INV, UPD,
)
from repro.protocols.base import ProcessContext
from repro.sim import DSMSystem, RunConfig
from repro.sim.channel import Network
from repro.sim.engine import EventScheduler
from repro.sim.faults import FaultPlan
from repro.sim.metrics import Metrics
from repro.sim.reliable import ReliabilityConfig, ReliableNetwork

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
    """Every ``(msg, cost)`` handed to :meth:`Network.send`, in order.

    Patched on the class before a system is built, so the bound send
    each port holds is the recording one.
    """
    sent = []
    original = Network.send

    def send(net, msg, cost, fanout=None):
        sent.append((msg, cost))
        return original(net, msg, cost, fanout)

    monkeypatch.setattr(Network, "send", send)
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
