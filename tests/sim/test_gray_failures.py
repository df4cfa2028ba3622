"""Gray failures: slow windows, latency-aware demotion, hedged quorums.

Covers the straggler fault model (:class:`SlowWindow` on
:class:`FaultPlan`), the phi-accrual demotion state of the failure
detector, the hedge configuration and its end-to-end behavior on the
quorum family, and the pay-for-what-you-use serialization that keeps
every pre-existing configuration identity byte-identical.
"""

import json
import math
from dataclasses import astuple

import pytest

from repro.core.parameters import WorkloadParams
from repro.exp import SweepCell, SweepSpec, run_sweep
from repro.sim import DSMSystem, FaultPlan, HedgeConfig, RunConfig, SlowWindow
from repro.sim.faults import FaultTimeline
from repro.sim.partition import PartitionPlan
from repro.util import backoff_delay
from repro.workloads import ideal_workload

from .util import fabric, transmit

PARAMS = WorkloadParams(N=6, p=0.2, S=100.0, P=30.0)


def _flapping(factor=10.0, until=6000.0):
    """Node 2 alternates 100 slowed / 100 healthy time units."""
    return [SlowWindow(2, 100.0 + k * 200.0, 200.0 + k * 200.0,
                       factor=factor)
            for k in range(int(until / 200.0))]


class TestSlowWindow:
    def test_covers_half_open_interval(self):
        w = SlowWindow(3, 10.0, 20.0, factor=4.0)
        assert not w.covers(9.99)
        assert w.covers(10.0)
        assert w.covers(19.99)
        assert not w.covers(20.0)

    def test_open_ended_window_defaults(self):
        w = SlowWindow(3, 5.0)
        assert w.end == math.inf
        assert w.factor == 10.0
        assert w.covers(1e12)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            SlowWindow(1, -1.0, 5.0)
        with pytest.raises(ValueError):
            SlowWindow(1, 5.0, 5.0)
        with pytest.raises(ValueError):
            SlowWindow(1, 0.0, 5.0, factor=1.0)
        with pytest.raises(ValueError):
            SlowWindow(1, 0.0, 5.0, factor=math.inf)


class TestFaultPlanSlowdowns:
    def test_slowdown_for_and_link_slowdown(self):
        plan = FaultPlan(slowdowns=[SlowWindow(2, 10.0, 20.0, factor=8.0)])
        timeline = FaultTimeline(plan, None)
        assert timeline.at(15.0)[1].get(2, 1.0) == 8.0
        assert timeline.at(25.0)[1].get(2, 1.0) == 1.0
        assert timeline.at(15.0)[1].get(3, 1.0) == 1.0
        # either endpoint straggling slows the link (max of the two):
        # the fabric stretches the unit latency by the link's factor
        net = fabric(plan)
        assert transmit(net, 2, 5, 15.0).delays == (8.0,)
        assert transmit(net, 5, 2, 15.0).delays == (8.0,)
        assert transmit(net, 3, 5, 15.0).delays == (1.0,)

    def test_overlapping_windows_same_node_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(slowdowns=[SlowWindow(2, 0.0, 10.0),
                                 SlowWindow(2, 5.0, 15.0)])
        # different nodes may overlap freely
        FaultPlan(slowdowns=[SlowWindow(2, 0.0, 10.0),
                             SlowWindow(3, 5.0, 15.0)])

    def test_slowdown_edges_sorted_and_finite(self):
        plan = FaultPlan(slowdowns=[SlowWindow(3, 50.0, 70.0),
                                    SlowWindow(2, 10.0)])
        timeline = FaultTimeline(plan, None)
        # the open-ended window has no restore edge
        assert timeline.edges == [10.0, 50.0, 70.0]
        slowed = [sorted(slow) for _down, slow, _links in timeline.segments]
        # node 2 slows at 10 and stays slow; node 3 slows at 50 and
        # is restored at 70
        assert slowed == [[], [2], [2, 3], [2]]

    def test_has_slowdowns_and_is_none(self):
        plan = FaultPlan(slowdowns=[SlowWindow(2, 0.0, 10.0)])
        assert plan.has_slowdowns and not plan.is_none
        assert not FaultPlan().has_slowdowns

    def test_serialization_round_trip(self):
        plan = FaultPlan(seed=7, slowdowns=[SlowWindow(2, 1.0, 9.0, 4.5),
                                            SlowWindow(3, 5.0)])
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.slowdowns == plan.slowdowns
        assert json.dumps(plan.to_dict())  # JSON-plain

    def test_slowdown_free_serialization_shape_unchanged(self):
        # pay-for-what-you-use: no slowdowns -> no "slowdowns" key, so
        # every pre-existing cell id and cache key stays byte-identical.
        plan = FaultPlan(seed=7, drop_rate=0.1, crashes=[(2, 1.0, 3.0)])
        assert "slowdowns" not in plan.to_dict()

    def test_describe_every_fault_kind(self):
        plan = FaultPlan(seed=7, drop_rate=0.2, duplicate_rate=0.1,
                         jitter=2.0, crashes=[(5, 100.0, 200.0)],
                         slowdowns=[SlowWindow(2, 100.0, factor=10.0)])
        text = plan.describe()
        assert "seed=7" in text
        assert "drop=0.2" in text
        assert "dup=0.1" in text
        assert "jitter<=2" in text
        assert "node 5" in text
        assert "slow(node 2: 100..∞, x10)" in text
        finite = FaultPlan(slowdowns=[SlowWindow(2, 10.0, 20.0, 4.0)])
        assert "slow(node 2: 10..20, x4)" in finite.describe()


class TestBackoffDelay:
    def test_exponential_growth(self):
        assert backoff_delay(8.0, 2.0, 0) == 8.0
        assert backoff_delay(8.0, 2.0, 1) == 16.0
        assert backoff_delay(8.0, 2.0, 3) == 64.0

    def test_cap(self):
        assert backoff_delay(8.0, 2.0, 10, cap=100.0) == 100.0
        assert backoff_delay(8.0, 2.0, 1, cap=100.0) == 16.0


class TestDetectorConfigValidation:
    def test_heartbeat_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            PartitionPlan(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            PartitionPlan(heartbeat_interval=-5.0)

    def test_suspect_after_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="suspect_after"):
            PartitionPlan(suspect_after=0)


class TestHedgeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgeConfig(budget=0.0)
        with pytest.raises(ValueError):
            HedgeConfig(budget=-1.0)
        with pytest.raises(ValueError):
            HedgeConfig(budget=math.inf)
        with pytest.raises(ValueError):
            HedgeConfig(max_legs=0)

    def test_round_trip_and_identity(self):
        cfg = HedgeConfig(budget=12.0, max_legs=2, seed=5)
        clone = HedgeConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert hash(clone) == hash(cfg)
        assert astuple(clone) == (12.0, 2, 5)
        assert HedgeConfig(budget=12.0, max_legs=2, seed=6) != cfg

    def test_describe(self):
        text = HedgeConfig(budget=8.0, max_legs=2, seed=3).describe()
        assert "budget=8" in text
        assert "max_legs=2" in text
        assert "seed=3" in text


class TestRunConfigHedge:
    def test_hedge_round_trips(self):
        config = RunConfig(ops=100, hedge=HedgeConfig(budget=8.0))
        clone = RunConfig.from_dict(config.to_dict())
        assert clone.hedge == config.hedge
        assert clone.to_dict() == config.to_dict()

    def test_hedge_free_serialization_shape_unchanged(self):
        assert "hedge" not in RunConfig(ops=100).to_dict()

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            RunConfig(ops=100, hedge={"budget": 8.0})

    def test_robustness_banner_renders_hedge_and_slowdowns(self):
        config = RunConfig(
            ops=100,
            faults=FaultPlan(slowdowns=[SlowWindow(2, 100.0, factor=10.0)]),
            hedge=HedgeConfig(budget=8.0, max_legs=2, seed=3),
        )
        text = config.describe_robustness()
        assert "slow(node 2: 100..∞, x10)" in text
        assert "hedge:       budget=8" in text

    def test_hedge_free_banner_has_no_hedge_line(self):
        assert "hedge:" not in RunConfig(ops=100).describe_robustness()


class TestSlowdownRuns:
    def test_persistent_straggler_is_demoted_not_quarantined(self):
        faults = FaultPlan(slowdowns=[SlowWindow(2, 100.0, factor=10.0)])
        config = RunConfig(ops=300, warmup=0, seed=21, faults=faults,
                           monitor=True)
        system = DSMSystem("sc_abd", N=PARAMS.N, M=2, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        result = system.run_workload(ideal_workload(PARAMS, M=2))
        assert not result.violations
        assert result.incomplete_ops == 0
        part = system.metrics.partition
        assert part.demotions >= 1
        # demote-only mode: the straggler keeps serving, it is never
        # suspected or quarantined.
        assert part.suspicions == 0
        counts = system.detector.state_counts()
        assert counts["demoted"] == 1
        assert counts["suspected"] == 0
        assert 2 in system.cluster.demoted

    def test_flapping_straggler_restores_on_healthy_half(self):
        faults = FaultPlan(slowdowns=_flapping(until=2000.0))
        config = RunConfig(ops=300, warmup=0, seed=21, faults=faults,
                           monitor=True)
        system = DSMSystem("sc_abd", N=PARAMS.N, M=2, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        result = system.run_workload(ideal_workload(PARAMS, M=2))
        assert not result.violations
        part = system.metrics.partition
        assert part.demotions > 1
        assert part.restorations >= 1

    def test_star_protocol_ignores_gray_machinery(self):
        # slow windows on a star protocol only stretch delays: no
        # detector is attached unless a partition plan asks for one.
        faults = FaultPlan(slowdowns=[SlowWindow(2, 100.0, factor=4.0)])
        config = RunConfig(ops=200, warmup=0, seed=21, faults=faults,
                           monitor=True)
        system = DSMSystem("write_through", N=PARAMS.N, M=2, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        result = system.run_workload(ideal_workload(PARAMS, M=2))
        assert not result.violations
        assert system.detector is None


class TestHedgedRuns:
    def _run(self, hedge, faults=None):
        config = RunConfig(ops=400, warmup=0, seed=21, faults=faults,
                           monitor=True, hedge=hedge)
        system = DSMSystem("sc_abd", N=PARAMS.N, M=2, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        result = system.run_workload(ideal_workload(PARAMS, M=2))
        return system, result

    def test_hedged_flapping_run_is_consistent_and_priced(self):
        faults = FaultPlan(slowdowns=_flapping(until=4000.0))
        hedge = HedgeConfig(budget=8.0, max_legs=2, seed=3)
        system, result = self._run(hedge, faults)
        assert not result.violations
        assert result.incomplete_ops == 0
        stats = system.metrics.reliability
        assert stats.hedges_launched > 0
        breakdown = system.metrics.average_cost_breakdown(skip=0)
        assert breakdown["hedge"] > 0.0
        # hedge legs are an additive share of acc itself (recovery,
        # detector and reconfig ride on top): the per-op shares still
        # sum to the total.
        total = (breakdown["protocol"] + breakdown["reliability"]
                 + breakdown["quorum"] + breakdown["hedge"])
        assert abs(total - breakdown["acc"]) < 1e-9

    def test_hedged_tail_beats_unhedged_under_straggler(self):
        faults = FaultPlan(slowdowns=_flapping(until=4000.0))
        hedge = HedgeConfig(budget=8.0, max_legs=2, seed=3)
        unhedged_sys, unhedged = self._run(None, faults)
        hedged_sys, hedged = self._run(hedge, faults)
        assert not unhedged.violations and not hedged.violations
        slow = unhedged_sys.metrics.latency_stats(skip=0)
        fast = hedged_sys.metrics.latency_stats(skip=0)
        assert fast["p99"] < slow["p99"], (fast, slow)

    def test_fault_free_hedged_run_never_fires(self):
        # a healthy fabric answers within the budget: hedging is free.
        system, result = self._run(HedgeConfig(budget=8.0, max_legs=2))
        assert not result.violations
        assert system.metrics.reliability.hedges_launched == 0
        assert system.metrics.average_cost_breakdown(skip=0)["hedge"] == 0.0


class TestSweepRowColumns:
    def _rows(self, config):
        spec = SweepSpec.explicit([
            SweepCell(protocol="sc_abd", params=PARAMS, kind="sim", M=2,
                      config=config)
        ])
        result = run_sweep(spec, workers=1)
        assert result.failed == 0, result.rows
        return result.rows

    def test_gray_columns_present_when_hedged(self):
        config = RunConfig(ops=200, warmup=25, seed=21,
                           faults=FaultPlan(slowdowns=_flapping(1500.0)),
                           monitor=True,
                           hedge=HedgeConfig(budget=8.0, max_legs=2))
        row = self._rows(config)[0]
        for column in ("acc_hedge_share", "hedges_launched", "demotions",
                       "restorations", "latency_p50", "latency_p95",
                       "latency_p99"):
            assert column in row, column
        assert row["hedge"] == {"budget": 8.0, "max_legs": 2, "seed": 0}
        assert math.isfinite(row["latency_p99"])

    def test_gray_columns_absent_without_gray_config(self):
        # pre-existing row shapes stay byte-identical: a plain quorum
        # cell gains no new columns.
        config = RunConfig(ops=200, warmup=25, seed=21, monitor=True)
        row = self._rows(config)[0]
        for column in ("acc_hedge_share", "hedges_launched", "demotions",
                       "latency_p99", "hedge"):
            assert column not in row, column
