"""Unit tests for the fault-free FIFO fabric (paper Section 2), and for
the fault decisions on the reliable transport's wire that replaces it in
faulty runs."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.machines.message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
)
from repro.sim.channel import Network
from repro.sim.engine import EventScheduler

from .util import fabric, transmit


def token(src, presence=ParamPresence.NONE):
    return MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED, presence)


def msg(src, dst, presence=ParamPresence.NONE, payload=None):
    return Message(token(src, presence), src, dst, payload=payload, op_id=1)


class Ledger:
    """Records each charge the fabric makes: ``(dst, cost)`` for one
    message, ``(src, dsts, cost)`` for a fan-out."""

    def __init__(self):
        self.charged = []

    def record_message(self, msg, cost):
        self.charged.append((msg.dst, cost))

    def record_fan_out(self, token, src, dsts, op_id, cost):
        self.charged.append((src, list(dsts), cost))


def make_network(latency=1.0, ledger=None):
    sched = EventScheduler()
    net = Network(sched, latency=latency, metrics=ledger)
    return sched, net


class TestDelivery:
    def test_every_message_delivered(self):
        sched, net = make_network()
        got = []
        net.attach(2, got.append)
        for _ in range(5):
            net.send(msg(1, 2), 1.0)
        sched.run()
        assert len(got) == 5

    def test_fifo_per_channel(self):
        sched, net = make_network()
        got = []
        net.attach(2, lambda m: got.append(m.payload))
        for i in range(20):
            net.send(msg(1, 2, payload=i), 1.0)
        sched.run()
        assert got == list(range(20))

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(list(range(8))))
    def test_property_fifo_under_interleaving(self, order):
        """Messages from several senders interleave, but each channel
        stays FIFO."""
        sched, net = make_network()
        got = []
        net.attach(9, lambda m: got.append((m.src, m.payload)))
        seq = {s: 0 for s in order}
        for s in order:
            net.send(msg(s, 9, payload=seq[s]), 1.0)
            seq[s] += 1
        sched.run()
        per_src = {}
        for src, payload in got:
            per_src.setdefault(src, []).append(payload)
        for payloads in per_src.values():
            assert payloads == sorted(payloads)

    def test_latency(self):
        sched, net = make_network(latency=3.0)
        times = []
        net.attach(2, lambda m: times.append(sched.now))
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert times == [3.0]

    def test_zero_latency_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            Network(sched, latency=0.0)


class TestSendErrors:
    def test_unattached_destination_raises_clear_error_at_send_time(self):
        """Regression: used to surface as a bare KeyError at delivery time."""
        sched, net = make_network()
        net.attach(1, lambda m: None)
        with pytest.raises(RuntimeError, match="node 7 is not attached"):
            net.send(msg(1, 7), 1.0)
        # nothing was charged or scheduled for the failed send
        assert net.messages_sent == 0
        assert len(sched) == 0

    def test_a_broadcast_to_an_unattached_destination_charges_nothing(self):
        ledger = Ledger()
        sched, net = make_network(ledger=ledger)
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: None)
        with pytest.raises(RuntimeError,
                           match="from node 1: destination node 7 is not"):
            net.fan_out(token(1), 1, [2, 7, 1], None, 1, 1.0)
        assert ledger.charged == [] and net.messages_sent == 0
        assert len(sched) == 0


#: nodes of the interleaving property test, all attached
_NODES = (1, 2, 3, 4)
#: one program step: a send, a broadcast (a node may appear more than
#: once, so one broadcast can carry several messages on one channel), or
#: a slice of the run that may stop inside a broadcast
_STEP = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(_NODES),
              st.sampled_from(_NODES)),
    st.tuples(st.just("broadcast"), st.sampled_from(_NODES),
              st.lists(st.sampled_from(_NODES), min_size=1, max_size=6)),
    st.tuples(st.just("run"), st.integers(0, 4)),
)


class TestPerChannelSequencing:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STEP, max_size=40))
    @example([("broadcast", 1, [2, 3, 2, 4, 2]), ("run", 2),
              ("send", 1, 2), ("broadcast", 1, [2, 2]), ("run", 1),
              ("send", 3, 2)])
    def test_each_channel_delivers_in_send_order(self, program):
        """FIFO per channel follows from constant latency and the
        scheduler's order alone: over random interleavings of sends,
        broadcasts and runs cut short by ``max_events`` (also inside a
        broadcast), the attached handlers see every channel's messages
        exactly in the order they were sent."""
        sched, net = make_network()
        sent = {}
        delivered = {}
        for node in _NODES:
            net.attach(node, lambda m: delivered.setdefault(
                (m.src, m.dst), []).append(m.payload))
        number = 0
        for kind, *args in program:
            if kind == "run":
                sched.run(max_events=args[0])
            else:
                # every member of a fan-out carries its one payload
                src, targets = args
                number += 1
                dsts = targets if kind == "broadcast" else [targets]
                for dst in dsts:
                    sent.setdefault((src, dst), []).append(number)
                if kind == "broadcast":
                    net.fan_out(token(src), src, dsts, number, 1, 1.0)
                else:
                    net.send(msg(src, targets, payload=number), 1.0)
            for channel, payloads in delivered.items():
                assert payloads == sent[channel][:len(payloads)], channel
        sched.run()
        assert delivered == sent

    def test_faulty_high_water_mark_shares_the_slot(self):
        """Jitter reorders frames on the reliable transport's wire; the
        channel's receive state is still one counter per channel, next
        to its send count, and delivery stays FIFO."""
        from repro.sim.faults import FaultPlan
        from repro.sim.metrics import Metrics
        from repro.sim.reliable import ReliableNetwork
        sched = EventScheduler()
        metrics = Metrics()
        net = ReliableNetwork(sched, metrics=metrics,
                              faults=FaultPlan(seed=3, jitter=2.0))
        order = []
        net.attach(1, lambda m: None)
        net.attach(2, lambda m: order.append(m.payload))
        for i in range(20):
            net.send(msg(1, 2, payload=i), 1.0)
        assert net._send_seq == {(1, 2): 20}
        sched.run()
        assert metrics.reliability.out_of_order_held > 0  # jitter did reorder
        assert order == list(range(20))
        assert net._expected == {(1, 2): 21}


class TestNoFaultSurface:
    def test_fault_keywords_are_rejected(self):
        """The fabric is the paper's fault-free one: faults ride the
        reliable transport's wire (tests below)."""
        from repro.sim.faults import FaultPlan
        for keyword in ("faults", "partitions", "on_fault"):
            with pytest.raises(TypeError):
                Network(EventScheduler(), **{keyword: FaultPlan()})
        net = Network(EventScheduler())
        for name in ("timeline", "fault_free", "screen_sources", "dropped",
                     "duplicated", "suppressed"):
            assert not hasattr(net, name), name


class TestFaultyFabric:
    """The fault decisions on the reliable transport's wire, one
    transmission at a time (``tests/sim/util.py``) or end to end."""

    def test_no_fault_plan_is_normalized_away(self):
        from repro.sim.faults import FaultPlan
        net = fabric(FaultPlan())
        assert net.faults is None and net.timeline is None

    def test_drops_lose_messages_but_charge_cost(self, monkeypatch):
        from repro.sim.faults import FaultPlan
        from repro.sim.metrics import Metrics
        from repro.sim.reliable import ReliabilityConfig, ReliableNetwork
        charged = []
        monkeypatch.setattr(Metrics, "record_message",
                            lambda self, m, c: charged.append(c))
        sched = EventScheduler()
        metrics = Metrics()
        net = ReliableNetwork(sched, metrics=metrics,
                              faults=FaultPlan(seed=0, drop_rate=1.0),
                              config=ReliabilityConfig(max_retries=0))
        got = []
        net.attach(1, lambda m: None)
        net.attach(2, got.append)
        for _ in range(5):
            net.send(msg(1, 2), 1.0)
        sched.run()
        assert got == []
        assert metrics.reliability.drops == 5
        assert len(charged) == 5  # the sender paid for every attempt

    def test_duplicates_deliver_twice(self):
        from repro.sim.faults import FaultPlan
        net = fabric(FaultPlan(seed=0, duplicate_rate=1.0))
        sent = transmit(net, 1, 2, 0.0)
        assert sent.delays == (1.0, 1.0)  # posted twice
        assert net.metrics.reliability.duplicates_injected == 1

    def test_jitter_delays_within_bound(self):
        from repro.sim.faults import FaultPlan
        net = fabric(FaultPlan(seed=3, jitter=2.0))
        delays = [d for _ in range(20)
                  for d in transmit(net, 1, 2, 0.0).delays]
        assert len(delays) == 20
        assert all(1.0 <= d <= 3.0 for d in delays)
        assert any(d > 1.0 for d in delays)

    def test_crashed_source_sends_nothing_and_pays_nothing(self):
        from repro.sim.faults import CrashWindow, FaultPlan
        net = fabric(FaultPlan(crashes=[CrashWindow(1, 0.0, 10.0)]))
        assert transmit(net, 1, 2, 0.0) == (False, False, False, ())
        assert net.messages_sent == 0  # nothing left the node
        assert net.metrics.reliability.sends_suppressed == 1

    def test_crashed_source_is_charged_its_first_attempt(self):
        """The send charges the first attempt before the wire screens
        the crashed source, so the operation pays although nothing
        leaves the node."""
        from repro.sim.faults import CrashWindow, FaultPlan
        net = fabric(FaultPlan(crashes=[CrashWindow(1, 0.0, 10.0)]))
        net.metrics.register_op(1, 1, "read", 1, 0.0)
        transmit(net, 1, 2, 0.0)
        assert net.metrics.op(1).cost == 1.0
        assert net.metrics.reliability.sends_suppressed == 1
        assert net.messages_sent == 0

    def test_crashed_destination_loses_delivery(self):
        from repro.sim.faults import CrashWindow, FaultPlan
        from repro.sim.metrics import Metrics
        from repro.sim.reliable import ReliabilityConfig, ReliableNetwork
        sched = EventScheduler()
        metrics = Metrics()
        net = ReliableNetwork(
            sched, metrics=metrics,
            faults=FaultPlan(crashes=[CrashWindow(2, 0.0, 10.0)]),
            config=ReliabilityConfig(max_retries=0))
        got = []
        net.attach(1, lambda m: None)
        net.attach(2, got.append)
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert got == [] and metrics.reliability.drops == 1

    def test_self_sends_bypass_faults(self):
        from repro.sim.faults import FaultPlan
        from repro.sim.reliable import ReliableNetwork
        sched = EventScheduler()
        net = ReliableNetwork(sched, faults=FaultPlan(seed=0, drop_rate=1.0))
        got = []
        net.attach(1, got.append)
        net.send(msg(1, 1), 0.0)
        sched.run()
        assert len(got) == 1

    def test_on_fault_observer(self):
        """Every injected fault is counted and traced as a system event."""
        from repro.obs.trace import Tracer
        from repro.sim.faults import FaultPlan
        net = fabric(FaultPlan(seed=0, drop_rate=1.0))
        net.metrics.tracer = Tracer(clock=net.scheduler)
        transmit(net, 1, 2, 0.0)
        events = [e.kind for e in net.metrics.tracer.system_events
                  if e.kind.startswith("fault.")]
        assert events == ["fault.drop"]
        assert net.metrics.reliability.drops == 1


class TestCostAccounting:
    def test_costs_by_presence(self):
        """The fabric charges what the sender priced and returns it;
        pricing itself is the port's (tests/sim/test_send_path.py)."""
        ledger = Ledger()
        sched, net = make_network(ledger=ledger)
        net.attach(2, lambda m: None)
        assert net.send(msg(1, 2, ParamPresence.NONE), 1.0) == 1.0
        assert net.send(msg(1, 2, ParamPresence.USER_INFO), 101.0) == 101.0
        assert net.send(msg(1, 2, ParamPresence.WRITE), 31.0) == 31.0
        assert ledger.charged == [(2, 1.0), (2, 101.0), (2, 31.0)]

    def test_self_send_free(self):
        ledger = Ledger()
        sched, net = make_network(ledger=ledger)
        net.attach(1, lambda m: None)
        cost = net.send(msg(1, 1), 0.0)
        assert cost == 0.0
        assert ledger.charged == []  # intra-node actions are not charged

    def test_broadcast_charges_members_in_order_and_self_sends_free(self):
        """The run's ledger, handed the whole fan-out, charges its members
        in order (as its tracer's send events show), the self-send for
        nothing."""
        from repro.obs.trace import Tracer
        from repro.sim.metrics import Metrics
        metrics = Metrics()
        sched, net = make_network(ledger=metrics)
        metrics.tracer = Tracer(clock=sched)
        metrics.register_op(1, 2, "write", 1, 0.0)
        got = []
        for node in (1, 2, 3):
            net.attach(node, lambda m, node=node: got.append(
                (node, m.dst, sched.now)))
        net.fan_out(token(2, ParamPresence.WRITE), 2, [3, 2, 1], None, 1,
                    31.0)
        assert [(e.dst, e.cost) for e in metrics.tracer.span(1).events] == [
            (3, 31.0), (1, 31.0)]
        assert metrics.op(1).cost == 62.0
        assert net.messages_sent == 3 and len(sched) == 3
        sched.run()
        # each member reached its own node's handler, in send order
        assert got == [(3, 3, 1.0), (2, 2, 1.0), (1, 1, 1.0)]

    def test_message_counter(self):
        sched, net = make_network()
        net.attach(2, lambda m: None)
        for _ in range(7):
            net.send(msg(1, 2), 1.0)
        assert net.messages_sent == 7
