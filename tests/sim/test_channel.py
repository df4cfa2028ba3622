"""Unit tests for the fault-free FIFO fabric (paper Section 2)."""

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
        assert net._sent_seq == {(1, 2): 3, (1, 3): 2, (2, 3): 1}
        sched.run()
        assert net._delivered_seq == {(1, 2): 3, (1, 3): 2, (2, 3): 1}


class TestFaultyFabric:
    def test_no_fault_plan_is_normalized_away(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        net = Network(sched, faults=FaultPlan.none())
        assert net.faults is None

    def test_drops_lose_messages_but_charge_cost(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        charged = []
        net = Network(sched, on_cost=lambda m, c: charged.append(c),
                      faults=FaultPlan(seed=0, drop_rate=1.0))
        got = []
        net.attach(2, got.append)
        for _ in range(5):
            net.send(msg(1, 2), 1.0)
        sched.run()
        assert got == []
        assert net.dropped == 5
        assert len(charged) == 5  # the sender paid for every attempt

    def test_duplicates_deliver_twice(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        net = Network(sched, faults=FaultPlan(seed=0, duplicate_rate=1.0))
        got = []
        net.attach(2, lambda m: got.append(m.payload))
        net.send(msg(1, 2, payload="x"), 1.0)
        sched.run()
        assert got == ["x", "x"]
        assert net.duplicated == 1

    def test_jitter_delays_within_bound(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        net = Network(sched, latency=1.0,
                      faults=FaultPlan(seed=3, jitter=2.0))
        times = []
        net.attach(2, lambda m: times.append(sched.now))
        for _ in range(20):
            net.send(msg(1, 2), 1.0)
        sched.run()
        assert all(1.0 <= t <= 3.0 for t in times)
        assert any(t > 1.0 for t in times)

    def test_crashed_source_sends_nothing_and_pays_nothing(self):
        from repro.sim.faults import CrashWindow, FaultPlan
        sched = EventScheduler()
        charged = []
        net = Network(sched, on_cost=lambda m, c: charged.append(c),
                      faults=FaultPlan(crashes=[CrashWindow(1, 0.0, 10.0)]))
        got = []
        net.attach(2, got.append)
        assert net.send(msg(1, 2), 1.0) == 0.0
        sched.run()
        assert got == [] and charged == []
        assert net.suppressed == 1

    def test_crashed_destination_loses_delivery(self):
        from repro.sim.faults import CrashWindow, FaultPlan
        sched = EventScheduler()
        net = Network(sched,
                      faults=FaultPlan(crashes=[CrashWindow(2, 0.0, 10.0)]))
        got = []
        net.attach(2, got.append)
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert got == [] and net.dropped == 1

    def test_self_sends_bypass_faults(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        net = Network(sched, faults=FaultPlan(seed=0, drop_rate=1.0))
        got = []
        net.attach(1, got.append)
        net.send(msg(1, 1), 0.0)
        sched.run()
        assert len(got) == 1

    def test_on_fault_observer(self):
        from repro.sim.faults import FaultPlan
        sched = EventScheduler()
        events = []
        net = Network(sched, faults=FaultPlan(seed=0, drop_rate=1.0),
                      on_fault=events.append)
        net.attach(2, lambda m: None)
        net.send(msg(1, 2), 1.0)
        assert events == ["drop"]


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
