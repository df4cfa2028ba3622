"""Unit tests for the fault-free FIFO fabric (paper Section 2), and for
the fault decisions on the reliable transport's wire that replaces it in
faulty runs."""

import pytest
from hypothesis import given, settings, strategies as st

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


def msg(src, dst, presence=ParamPresence.NONE, payload=None):
    token = MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED,
                         presence)
    return Message(token, src, dst, payload=payload, op_id=1)


def make_network(latency=1.0, on_cost=None):
    sched = EventScheduler()
    net = Network(sched, latency=latency, on_cost=on_cost)
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


class TestPerChannelSequencing:
    def test_counters_are_dense_per_channel(self):
        """Regression: a single global counter made per-channel sequence
        numbers sparse; they must count 1, 2, 3, ... per channel."""
        sched, net = make_network()
        for node in (2, 3):
            net.attach(node, lambda m: None)
        net.attach(1, lambda m: None)
        for _ in range(3):
            net.send(msg(1, 2), 1.0)
        for _ in range(2):
            net.send(msg(1, 3), 1.0)
        net.send(msg(2, 3), 1.0)
        # one [sent, delivered] slot per directed channel
        assert net._slots == {1: {2: [3, 0], 3: [2, 0]}, 2: {3: [1, 0]}}
        sched.run()
        assert net._slots == {1: {2: [3, 3], 3: [2, 2]}, 2: {3: [1, 1]}}

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
        charged = []
        sched, net = make_network(on_cost=lambda m, c: charged.append(c))
        net.attach(2, lambda m: None)
        assert net.send(msg(1, 2, ParamPresence.NONE), 1.0) == 1.0
        assert net.send(msg(1, 2, ParamPresence.USER_INFO), 101.0) == 101.0
        assert net.send(msg(1, 2, ParamPresence.WRITE), 31.0) == 31.0
        assert charged == [1.0, 101.0, 31.0]

    def test_self_send_free(self):
        charged = []
        sched, net = make_network(on_cost=lambda m, c: charged.append(c))
        net.attach(1, lambda m: None)
        cost = net.send(msg(1, 1), 0.0)
        assert cost == 0.0
        assert charged == []  # intra-node actions are not charged

    def test_message_counter(self):
        sched, net = make_network()
        net.attach(2, lambda m: None)
        for _ in range(7):
            net.send(msg(1, 2), 1.0)
        assert net.messages_sent == 7
