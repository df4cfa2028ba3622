"""Unit tests for the deterministic fault-injection plans."""

import math
from dataclasses import replace

import pytest

from repro.sim.faults import CrashWindow, FaultPlan, FaultTimeline

from .util import fabric, transmit


class TestCrashWindow:
    def test_covers_half_open_interval(self):
        w = CrashWindow(3, 10.0, 20.0)
        assert not w.covers(9.99)
        assert w.covers(10.0)
        assert w.covers(19.99)
        assert not w.covers(20.0)

    def test_open_ended_window(self):
        w = CrashWindow(3, 5.0)
        assert w.end == math.inf
        assert w.covers(1e12)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            CrashWindow(1, -1.0, 5.0)
        with pytest.raises(ValueError):
            CrashWindow(1, 5.0, 5.0)


class TestFaultPlanConfig:
    def test_none_plan_is_none(self):
        assert FaultPlan().is_none

    def test_any_fault_makes_plan_not_none(self):
        assert not FaultPlan(drop_rate=0.1).is_none
        assert not FaultPlan(duplicate_rate=0.1).is_none
        assert not FaultPlan(jitter=1.0).is_none
        assert not FaultPlan(crashes=[(1, 0.0, 5.0)]).is_none

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(jitter=-1.0)

    def test_crash_tuples_coerced(self):
        plan = FaultPlan(crashes=[(2, 1.0, 3.0), (5, 10.0)])
        assert plan.crashes[0] == CrashWindow(2, 1.0, 3.0)
        assert plan.crashes[1].end == math.inf

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        text = FaultPlan(seed=7, drop_rate=0.2,
                         crashes=[(5, 100.0, 200.0)]).describe()
        assert "seed=7" in text and "drop=0.2" in text and "node 5" in text


class TestDeterminism:
    """The plan's decisions, rolled by the fabric that binds its stream."""

    def test_same_seed_same_decisions(self):
        def decisions(plan):
            net = fabric(plan)
            return [transmit(net, 1, 2, 0.0) for _ in range(200)]

        kwargs = dict(seed=42, drop_rate=0.3, duplicate_rate=0.1, jitter=2.0)
        assert decisions(FaultPlan(**kwargs)) == decisions(FaultPlan(**kwargs))

    def test_different_seeds_differ(self):
        plan1 = FaultPlan(seed=1, drop_rate=0.5)
        plan2 = FaultPlan(seed=2, drop_rate=0.5)
        net1, net2 = fabric(plan1), fabric(plan2)
        a = [transmit(net1, 1, 2, 0.0).dropped for _ in range(64)]
        b = [transmit(net2, 1, 2, 0.0).dropped for _ in range(64)]
        assert a != b

    def test_replay_rewinds_the_stream(self):
        plan = FaultPlan(seed=9, drop_rate=0.4, jitter=1.0)
        net = fabric(plan)
        first = [transmit(net, 1, 2, 0.0) for _ in range(50)]
        fresh = fabric(replace(plan))
        again = [transmit(fresh, 1, 2, 0.0) for _ in range(50)]
        assert first == again

    def test_zero_rates_never_consume_rng(self):
        """Guard for bit-identical fault-free runs: a no-op query must not
        advance the RNG stream."""
        plan = FaultPlan(seed=5, drop_rate=0.5)
        net = fabric(plan)
        for _ in range(10):
            sent = transmit(net, 1, 2, 0.0)
            assert not sent.duplicated  # rate 0: no draw
            assert sent.delays in ((), (1.0,))  # jitter 0: no draw
        # one draw per send (the drop): the stream is a fresh plan's,
        # advanced by the ten drop rolls alone
        fresh = replace(plan)
        for _ in range(10):
            fresh._rng.random()
        assert plan._rng.getstate() == fresh._rng.getstate()


class TestCrashSchedule:
    def test_is_down(self):
        plan = FaultPlan(crashes=[(2, 10.0, 20.0), (5, 15.0)])
        timeline = FaultTimeline(plan, None)
        assert 2 not in timeline.at(5.0)[0]
        assert 2 in timeline.at(12.0)[0]
        assert 2 not in timeline.at(25.0)[0]
        assert 5 in timeline.at(1e9)[0]
        assert 3 not in timeline.at(12.0)[0]

    def test_crash_edges_sorted_and_finite(self):
        plan = FaultPlan(crashes=[(2, 30.0, 40.0), (5, 10.0), (1, 20.0, 25.0)])
        assert plan.crash_edges() == [
            (10.0, 5, "crash"),
            (20.0, 1, "crash"),
            (25.0, 1, "recover"),
            (30.0, 2, "crash"),
            (40.0, 2, "recover"),
        ]


class TestCrashSemanticsAndValidation:
    def test_semantics_default_durable(self):
        assert CrashWindow(1, 10.0).semantics == "durable"

    def test_bad_semantics_rejected(self):
        with pytest.raises(ValueError, match="semantics"):
            CrashWindow(1, 10.0, 20.0, semantics="flaky")

    def test_has_amnesia(self):
        durable = FaultPlan(crashes=[(1, 10.0, 20.0)])
        assert not durable.has_amnesia
        mixed = FaultPlan(crashes=[
            (1, 10.0, 20.0), (2, 5.0, 15.0, "amnesia"),
        ])
        assert mixed.has_amnesia

    def test_overlapping_windows_same_node_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(crashes=[(1, 10.0, 30.0), (1, 20.0, 40.0)])

    def test_open_ended_window_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(crashes=[(1, 10.0), (1, 50.0, 60.0)])

    def test_adjacent_windows_same_node_allowed(self):
        plan = FaultPlan(crashes=[(1, 10.0, 20.0), (1, 20.0, 30.0)])
        assert plan.crash_edges() == [
            (10.0, 1, "crash"),
            (20.0, 1, "crash"),
            (20.0, 1, "recover"),
            (30.0, 1, "recover"),
        ]

    def test_overlapping_windows_different_nodes_allowed(self):
        plan = FaultPlan(crashes=[(2, 5.0, 25.0), (1, 10.0, 20.0)])
        assert plan.crash_edges() == [
            (5.0, 2, "crash"),
            (10.0, 1, "crash"),
            (20.0, 1, "recover"),
            (25.0, 2, "recover"),
        ]

    def test_validate_nodes(self):
        plan = FaultPlan(crashes=[(4, 10.0, 20.0)])
        plan.validate_nodes(4)  # sequencer of an N=3 system: fine
        with pytest.raises(ValueError, match="node 4"):
            plan.validate_nodes(3)
        with pytest.raises(ValueError, match="node 0"):
            FaultPlan(crashes=[(0, 10.0, 20.0)]).validate_nodes(4)

    def test_semantics_round_trips(self):
        plan = FaultPlan(crashes=[
            (1, 10.0, 20.0), (2, 5.0, 15.0, "amnesia"), (3, 30.0),
        ])
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert [w.semantics for w in again.crashes] == \
            ["durable", "amnesia", "durable"]

    def test_durable_serialization_shape_unchanged(self):
        """Serialized durable-only plans keep the historical 3-element
        crash entries (cache-key stability across versions)."""
        plan = FaultPlan(crashes=[(1, 10.0, 20.0)])
        assert plan.to_dict()["crashes"] == [[1, 10.0, 20.0]]

    def test_semantics_in_config_key_and_describe(self):
        durable = FaultPlan(crashes=[(1, 10.0, 20.0)])
        amnesia = FaultPlan(crashes=[(1, 10.0, 20.0, "amnesia")])
        assert durable != amnesia
        assert "amnesia" in amnesia.describe()
        assert "amnesia" not in durable.describe()
