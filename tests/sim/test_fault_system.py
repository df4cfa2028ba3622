"""System-level tests for fault injection and reliable delivery.

Covers the PR's invariants:

* with ``FaultPlan()`` results are bit-identical to the fault-free
  fabric (pay-for-what-you-use);
* with drop rates up to 0.2 (plus duplicates and jitter) every coherence
  invariant still holds and ``acc`` is finite;
* runs are fully deterministic given the workload seed and the plan seed;
* a crashed-and-recovered sequencer only delays traffic, it does not break
  coherence;
* an exhausted retry budget degrades gracefully instead of hanging.
"""

import math

import pytest

from repro.core.parameters import WorkloadParams
from repro.sim import (
    CrashWindow,
    DSMSystem,
    FaultPlan,
    Network,
    ReliabilityConfig,
    ReliableNetwork,
    RunConfig,
)
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)

ALL_PROTOCOLS = [
    "write_through", "write_through_v", "write_once", "synapse",
    "illinois", "berkeley", "dragon", "firefly",
]


def workload():
    return read_disturbance_workload(PARAMS, M=1)


def run(protocol, faults=None, reliability=None, num_ops=1200, warmup=200,
        seed=3):
    config = RunConfig(ops=num_ops, warmup=warmup, seed=seed,
                       faults=faults, reliability=reliability)
    system = DSMSystem(protocol, N=PARAMS.N, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    result = system.run_workload(workload())
    return system, result


class TestPayForWhatYouUse:
    def test_none_plan_uses_plain_network(self):
        system = DSMSystem("write_through", N=2,
                           config=RunConfig(faults=FaultPlan()))
        assert isinstance(system.network, Network)
        assert system.faults is None and system.reliability is None

    def test_fault_plan_implies_reliable_network(self):
        system = DSMSystem(
            "write_through", N=2,
            config=RunConfig(faults=FaultPlan(drop_rate=0.1)))
        assert isinstance(system.network, ReliableNetwork)
        assert system.reliability == ReliabilityConfig()

    @pytest.mark.parametrize("protocol", ["write_through", "dragon"])
    def test_none_plan_bit_identical_to_baseline(self, protocol):
        _s1, r1 = run(protocol, faults=None)
        s2, r2 = run(protocol, faults=FaultPlan())
        assert r1.acc == r2.acc
        assert r1.messages == r2.messages
        assert r1.end_time == r2.end_time
        assert (r1.metrics.trace_histogram(200)
                == r2.metrics.trace_histogram(200))
        stats = s2.metrics.reliability
        assert stats.retransmissions == 0 and stats.acks == 0
        assert stats.cost == 0.0


class TestCoherenceUnderFaults:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_drop_rate_point_two_keeps_invariants(self, protocol):
        plan = FaultPlan(seed=7, drop_rate=0.2, duplicate_rate=0.05,
                         jitter=0.5)
        system, result = run(protocol, faults=plan)
        assert result.incomplete_ops == 0
        assert math.isfinite(result.acc)
        system.check_coherence()
        # faults actually happened and the reliable layer worked for them
        stats = system.metrics.reliability
        assert stats.drops > 0
        assert stats.retransmissions > 0
        assert stats.duplicates_suppressed > 0
        assert system.metrics.unattributed_cost == 0.0

    def test_overhead_is_separated_from_protocol_cost(self):
        plan = FaultPlan(seed=7, drop_rate=0.2)
        system, result = run("write_through", faults=plan)
        breakdown = system.metrics.average_cost_breakdown(skip=200)
        assert breakdown["reliability"] > 0
        assert breakdown["protocol"] > 0
        assert breakdown["acc"] == pytest.approx(
            breakdown["protocol"] + breakdown["reliability"])
        assert result.acc == pytest.approx(breakdown["acc"])

    def test_trace_signatures_unpolluted_by_reliability_traffic(self):
        """Retransmissions and acks must not appear in trace signatures."""
        plan = FaultPlan(seed=7, drop_rate=0.2)
        system, _ = run("write_through", faults=plan)
        baseline_system, _ = run("write_through")
        faulty_sigs = set(system.metrics.trace_histogram())
        clean_sigs = set(baseline_system.metrics.trace_histogram())
        assert faulty_sigs <= clean_sigs


class TestDeterminismUnderFaults:
    def test_identical_seeds_identical_runs(self):
        """Satellite: same workload seed + same FaultPlan seed => identical
        acc, retry counts and message totals."""

        def one():
            plan = FaultPlan(seed=11, drop_rate=0.15, duplicate_rate=0.05,
                             jitter=0.5)
            system, result = run("berkeley", faults=plan, seed=9)
            stats = system.metrics.reliability
            return (
                result.acc,
                result.messages,
                result.end_time,
                stats.retransmissions,
                stats.acks,
                stats.drops,
                stats.duplicates_suppressed,
            )

        assert one() == one()

    def test_different_fault_seeds_differ(self):
        def one(fault_seed):
            plan = FaultPlan(seed=fault_seed, drop_rate=0.15)
            _system, result = run("berkeley", faults=plan, seed=9)
            return (result.acc, result.messages)

        assert one(11) != one(12)


class TestSequencerCrash:
    def test_sequencer_outage_recovers(self):
        sequencer = PARAMS.N + 1
        plan = FaultPlan(crashes=[CrashWindow(sequencer, 5000.0, 7000.0)])
        system, result = run("write_through", faults=plan, num_ops=2000,
                             warmup=300)
        assert result.incomplete_ops == 0
        system.check_coherence()
        stats = system.metrics.reliability
        assert stats.crashes == 1 and stats.recoveries == 1
        assert stats.retransmissions > 0  # traffic bridged the outage

    def test_client_crash_recovers(self):
        plan = FaultPlan(crashes=[CrashWindow(2, 4000.0, 6000.0)])
        system, result = run("write_once", faults=plan, num_ops=2000,
                             warmup=300)
        assert result.incomplete_ops == 0
        system.check_coherence()


class TestGracefulDegradation:
    def test_total_loss_does_not_hang(self):
        plan = FaultPlan(seed=1, drop_rate=1.0)
        system, result = run(
            "write_through", faults=plan,
            reliability=ReliabilityConfig(timeout=4.0, max_retries=2),
            num_ops=50, warmup=10,
        )
        stats = system.metrics.reliability
        assert stats.delivery_failures > 0
        assert result.incomplete_ops > 0
        assert result.incomplete_ops <= 50
        assert stats.failed_op_ids  # the victims are identifiable

    def test_acc_degrades_to_nan_when_window_empty(self):
        plan = FaultPlan(seed=1, drop_rate=1.0)
        _system, result = run(
            "write_through", faults=plan,
            reliability=ReliabilityConfig(timeout=4.0, max_retries=1),
            num_ops=30, warmup=29,
        )
        if result.measured == 0:
            assert math.isnan(result.acc)
        else:
            assert math.isfinite(result.acc)

    def test_reliability_without_faults_is_pure_ack_overhead(self):
        system, result = run("write_through",
                             reliability=ReliabilityConfig())
        assert isinstance(system.network, ReliableNetwork)
        system.check_coherence()
        stats = system.metrics.reliability
        assert stats.retransmissions == 0
        assert stats.acks > 0
        baseline_system, baseline = run("write_through")
        breakdown = system.metrics.average_cost_breakdown(skip=200)
        # protocol share matches the fault-free acc; acks add 1 per
        # inter-node message on top
        assert breakdown["protocol"] == pytest.approx(baseline.acc)
        assert breakdown["reliability"] > 0
