"""Unit and property tests for the reliable exactly-once FIFO layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines.message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
    token_cost,
)
from repro.sim.engine import EventScheduler
from repro.sim.faults import CrashWindow, FaultPlan
from repro.sim.metrics import Metrics
from repro.sim.reliable import ReliabilityConfig, ReliableNetwork


def msg(src, dst, payload=None, op_id=1, presence=ParamPresence.NONE):
    token = MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED,
                         presence)
    return Message(token, src, dst, payload=payload, op_id=op_id)


def make(faults=None, config=None, nodes=(1, 2, 3), metrics=None):
    sched = EventScheduler()
    net = ReliableNetwork(sched, latency=1.0, metrics=metrics,
                          faults=faults, config=config)
    inboxes = {n: [] for n in nodes}
    for n in nodes:
        net.attach(n, inboxes[n].append)
    return sched, net, inboxes


class TestConfig:
    def test_defaults_sane(self):
        cfg = ReliabilityConfig()
        assert cfg.timeout > 0 and cfg.backoff >= 1 and cfg.max_retries >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(timeout=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)


class TestFrameCost:
    """Each frame reaches the physical fabric at the cost its sender
    priced: data at the message's price, acks as bare tokens, loops free."""

    @staticmethod
    def sent_frames(net):
        sent = []
        physical_send = net.physical.send

        def record(frame, cost):
            sent.append((frame.kind, cost))
            return physical_send(frame, cost)

        net.physical.send = record
        return sent

    def test_data_frame_cost_mirrors_message(self):
        sched, net, _ = make()
        sent = self.sent_frames(net)
        cost = token_cost(ParamPresence.USER_INFO, 100, 30)
        assert cost == 101.0
        m = msg(1, 2, presence=ParamPresence.USER_INFO)
        assert net.send(m, cost) == cost
        sched.run()
        assert sent[0] == ("data", 101.0)

    def test_ack_is_a_bare_token(self):
        sched, net, _ = make()
        sent = self.sent_frames(net)
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert [c for kind, c in sent if kind == "ack"] == [1.0]

    def test_intra_node_free(self):
        sched, net, _ = make()
        sent = self.sent_frames(net)
        assert net.send(msg(1, 1), 0.0) == 0.0
        sched.run()
        assert sent == [("loop", 0.0)]


class TestFaultFreeTransport:
    def test_delivers_in_fifo_order(self):
        sched, net, inboxes = make()
        for i in range(10):
            net.send(msg(1, 2, payload=i), 1.0)
        sched.run()
        assert [m.payload for m in inboxes[2]] == list(range(10))

    def test_acks_flow_and_timers_cancel(self):
        metrics = Metrics()
        metrics.register_op(1, 1, "read", 1, 0.0)
        sched, net, inboxes = make(metrics=metrics)
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert metrics.reliability.acks == 1
        assert metrics.reliability.retransmissions == 0
        assert net.in_flight == 0
        assert len(sched) == 0  # nothing armed once the ack lands

    def test_self_send_bypasses_transport(self):
        metrics = Metrics()
        sched, net, inboxes = make(metrics=metrics)
        net.send(msg(1, 1, payload="home"), 0.0)
        sched.run()
        assert [m.payload for m in inboxes[1]] == ["home"]
        assert metrics.reliability.acks == 0

    def test_unattached_destination_raises(self):
        sched, net, _ = make()
        with pytest.raises(RuntimeError, match="not attached"):
            net.send(msg(1, 9), 1.0)


class TestRetryAndSuppression:
    def test_drop_triggers_retransmission(self):
        metrics = Metrics()
        metrics.register_op(1, "n", "read", 1, 0.0)
        # drop exactly the first transmission: seed chosen by rate=1 on a
        # single-use plan is too blunt, so drop everything and watch the
        # budget instead below; here use 50% and assert eventual delivery.
        plan = FaultPlan(seed=2, drop_rate=0.5)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=4.0, max_retries=50),
        )
        for i in range(20):
            net.send(msg(1, 2, payload=i), 1.0)
        sched.run()
        assert [m.payload for m in inboxes[2]] == list(range(20))
        assert metrics.reliability.retransmissions > 0
        assert metrics.reliability.delivery_failures == 0

    def test_injected_duplicates_suppressed(self):
        metrics = Metrics()
        plan = FaultPlan(seed=0, duplicate_rate=1.0)
        sched, net, inboxes = make(faults=plan, metrics=metrics)
        for i in range(5):
            net.send(msg(1, 2, payload=i), 1.0)
        sched.run()
        assert [m.payload for m in inboxes[2]] == list(range(5))
        assert metrics.reliability.duplicates_suppressed >= 5

    def test_retry_budget_exhaustion_degrades_gracefully(self):
        metrics = Metrics()
        metrics.register_op(77, 1, "read", 1, 0.0)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=3),
        )
        net.send(msg(1, 2, op_id=77), 1.0)
        executed = sched.run(max_events=10_000)
        # the run drains instead of hanging, and the loss is surfaced
        assert len(sched) == 0
        assert executed < 10_000
        assert inboxes[2] == []
        assert metrics.reliability.delivery_failures == 1
        assert metrics.reliability.failed_op_ids == [77]
        assert metrics.reliability.retransmissions == 3
        assert net.in_flight == 0

    def test_backoff_spaces_retries_exponentially(self):
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, _ = make(
            faults=plan, metrics=Metrics(),
            config=ReliabilityConfig(timeout=2.0, backoff=2.0,
                                     max_retries=3),
        )
        net.send(msg(1, 2), 1.0)
        sched.run()
        # timer fires at 2, 2+4, 2+4+8, give-up at 2+4+8+16 = 30
        assert sched.now == 30.0

    def test_wedged_channel_holds_later_messages(self):
        """After a delivery failure the FIFO hole never closes: later
        messages on that channel park in the reorder buffer (documented
        degradation semantics)."""
        metrics = Metrics()
        # drop the first 4 transmissions deterministically via budget 0
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=0),
        )
        net.send(msg(1, 2, payload="lost"), 1.0)
        sched.run()
        assert metrics.reliability.delivery_failures == 1
        # heal the network; the next message still cannot be delivered
        # because seq 1 never arrived.
        net.physical.faults = None
        net.send(msg(1, 2, payload="stuck"), 1.0)
        sched.run(max_events=10_000)
        assert inboxes[2] == []
        assert metrics.reliability.out_of_order_held == 1


class TestCrashRecovery:
    def test_messages_get_through_after_recovery(self):
        metrics = Metrics()
        plan = FaultPlan(crashes=[CrashWindow(2, 0.0, 20.0)])
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=4.0, max_retries=10),
        )
        net.send(msg(1, 2, payload="hello"), 1.0)
        sched.run()
        assert [m.payload for m in inboxes[2]] == ["hello"]
        assert metrics.reliability.retransmissions > 0
        assert sched.now >= 20.0  # delivered only after recovery

    def test_crashed_sender_retries_after_recovery(self):
        metrics = Metrics()
        plan = FaultPlan(crashes=[CrashWindow(1, 0.5, 10.0)])
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=4.0, max_retries=10),
        )
        net.send(msg(1, 2, payload="pre-crash"), 1.0)  # leaves at t=0
        sched.run(until=lambda: sched.now >= 0.4)
        net.send(msg(1, 2, payload="during"), 1.0)  # swallowed: down
        sched.run()
        assert [m.payload for m in inboxes[2]] == ["pre-crash", "during"]
        assert metrics.reliability.sends_suppressed >= 1


class TestDeliveryViolations:
    def test_exhaustion_toward_live_destination_is_a_violation(self):
        metrics = Metrics()
        metrics.register_op(5, 1, "write", 3, 0.0)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, _ = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=3),
        )
        net.send(msg(1, 2, op_id=5), 1.0)
        sched.run()
        assert len(net.violations) == 1
        v = net.violations[0]
        assert v.kind == "delivery"
        assert (v.src, v.dst, v.seq) == (1, 2, 1)
        assert v.op_id == 5
        assert v.attempts == 3
        assert "abandoned after 3 retries" in v.detail

    def test_exhaustion_toward_crashed_destination_is_handled(self):
        """Abandonment toward a down node is the intended degradation
        (recovery resyncs it at rejoin), not a contract violation."""
        metrics = Metrics()
        plan = FaultPlan(crashes=[CrashWindow(2, 0.0, 10_000.0)])
        sched, net, _ = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=2),
        )
        net.send(msg(1, 2), 1.0)
        sched.run()
        assert metrics.reliability.delivery_failures == 1
        assert net.violations == []

    def test_violations_surface_on_simulation_result(self):
        from repro.core.parameters import WorkloadParams
        from repro.sim import DSMSystem, RunConfig
        from repro.workloads import read_disturbance_workload

        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.1,
                                S=100.0, P=30.0)
        plan = FaultPlan(seed=1, drop_rate=1.0)
        config = RunConfig(
            ops=50, warmup=10, seed=3, faults=plan,
            reliability=ReliabilityConfig(timeout=4.0, max_retries=2),
        )
        system = DSMSystem("write_through", N=params.N, S=params.S,
                           P=params.P, faults=config.faults,
                           reliability=config.reliability)
        result = system.run_workload(
            read_disturbance_workload(params, M=1), config)
        delivery = [v for v in result.violations if v.kind == "delivery"]
        assert delivery
        assert len(delivery) == len(system.network.violations)
        assert all(v.attempts == 2 for v in delivery)


class TestSuppressedViolations:
    """Retry-budget exhaustion toward a quarantined destination is the
    intended degradation — suppressed, but *visibly* so (satellite of the
    quorum PR: the count was previously invisible)."""

    def _exhaust_toward_quarantined(self, metrics):
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, _ = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=2),
        )
        net.send(msg(1, 2), 1.0)  # in flight...
        net.quarantined = {2}         # ...then the view ejects the dst
        sched.run()
        return net

    def test_counted_in_partition_stats_not_violations(self):
        metrics = Metrics()
        net = self._exhaust_toward_quarantined(metrics)
        assert net.violations == []
        assert metrics.partition.suppressed_violations == 1
        # still a delivery failure (the op is incomplete) — just not a
        # reliability-contract violation.
        assert metrics.reliability.delivery_failures == 1

    def test_published_to_registry_as_counter(self):
        from repro.obs import MetricsRegistry
        metrics = Metrics()
        self._exhaust_toward_quarantined(metrics)
        reg = MetricsRegistry()
        metrics.publish(reg)
        counter = reg.counter("sim.reliable.suppressed_violations")
        assert counter.value == 1
        metrics.publish(reg)  # delta-inc: republishing must not double
        assert counter.value == 1


class TestUnorderedDatagrams:
    """The quorum transport: at-least-once unordered delivery whose
    abandonment is silent (re-selection owns liveness, not the channel)."""

    def test_delivers_and_suppresses_duplicates(self):
        metrics = Metrics()
        plan = FaultPlan(seed=0, duplicate_rate=1.0)
        sched, net, inboxes = make(faults=plan, metrics=metrics)
        for i in range(5):
            net.send_unordered(msg(1, 2, payload=i), 1.0)
        sched.run()
        assert sorted(m.payload for m in inboxes[2]) == list(range(5))
        assert metrics.reliability.duplicates_suppressed >= 5

    def test_abandonment_is_silent_and_never_wedges(self):
        metrics = Metrics()
        metrics.register_op(9, 1, "read", 1, 0.0)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=3),
        )
        net.send_unordered(msg(1, 2, op_id=9), 1.0)
        sched.run()
        # no violation, no delivery failure, no failed op — only the
        # dgram_abandoned counter moves.
        assert net.violations == []
        assert metrics.reliability.delivery_failures == 0
        assert metrics.reliability.failed_op_ids == []
        assert metrics.reliability.dgram_abandoned == 1
        # and the channel is NOT wedged: after healing, later datagrams
        # deliver immediately (no FIFO hole to close).
        net.physical.faults = None
        net.send_unordered(msg(1, 2, payload="after"), 1.0)
        sched.run()
        assert [m.payload for m in inboxes[2]] == ["after"]

    def test_self_send_bypasses_transport(self):
        metrics = Metrics()
        sched, net, inboxes = make(metrics=metrics)
        net.send_unordered(msg(1, 1, payload="loop"), 0.0)
        sched.run()
        assert [m.payload for m in inboxes[1]] == ["loop"]
        assert metrics.reliability.acks == 0

    def test_cancel_dgrams_voids_pending_retries(self):
        """Hedge cancellation: a finished phase voids its operation's
        pending datagram retries without touching other operations."""
        metrics = Metrics()
        metrics.register_op(9, 1, "read", 1, 0.0)
        metrics.register_op(10, 1, "read", 1, 0.0)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics,
            config=ReliabilityConfig(timeout=2.0, max_retries=3),
        )
        net.send_unordered(msg(1, 2, op_id=9), 1.0)
        net.send_unordered(msg(1, 3, op_id=9), 1.0)
        net.send_unordered(msg(1, 2, op_id=10), 1.0)
        assert net.cancel_dgrams(1, 9) == 2
        # cancelling again is a no-op; op 10's retry loop is untouched.
        assert net.cancel_dgrams(1, 9) == 0
        sched.run()
        assert metrics.reliability.dgram_abandoned == 1  # op 10 only

    def test_hedge_kind_routes_to_hedge_share(self):
        metrics = Metrics()
        metrics.register_op(9, 1, "read", 1, 0.0)
        sched, net, inboxes = make(metrics=metrics)
        net.send_unordered(msg(1, 2, op_id=9), 1.0, hedge=True)
        sched.run()
        assert [m.op_id for m in inboxes[2]] == [9]
        rec = metrics._ops[9]
        assert rec.hedge_cost > 0
        assert rec.quorum_cost == 0


class TestExactlyOnceFifoProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        drop=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
        dup=st.sampled_from([0.0, 0.2, 0.5]),
        jitter=st.sampled_from([0.0, 0.5, 3.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_exactly_once_in_order(self, drop, dup, jitter, seed):
        """The invariant of the PR: with any drop rate < 1 and duplication
        enabled, every protocol message is delivered exactly once, in
        per-channel FIFO order."""
        metrics = Metrics()
        plan = FaultPlan(seed=seed, drop_rate=drop, duplicate_rate=dup,
                         jitter=jitter)
        sched, net, inboxes = make(
            faults=plan, metrics=metrics, nodes=(1, 2, 3),
            config=ReliabilityConfig(timeout=8.0, max_retries=64),
        )
        sent = {(1, 3): 12, (2, 3): 9, (3, 1): 5}
        for (src, dst), count in sent.items():
            for i in range(count):
                net.send(msg(src, dst, payload=(src, i)), 1.0)
        sched.run(max_events=200_000)
        assert metrics.reliability.delivery_failures == 0
        per_channel = {}
        for node, inbox in inboxes.items():
            for m in inbox:
                per_channel.setdefault((m.src, node), []).append(
                    m.payload[1])
        for channel, count in sent.items():
            assert per_channel.get(channel, []) == list(range(count)), (
                f"channel {channel} broke exactly-once FIFO"
            )
