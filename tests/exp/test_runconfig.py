"""RunConfig semantics; the pre-1.2 call forms must raise TypeError."""

import dataclasses
import math

import pytest

from repro import api
from repro.core.parameters import WorkloadParams
from repro.obs import TraceConfig
from repro.sim import (
    CacheConfig,
    CrashWindow,
    DSMSystem,
    FaultPlan,
    HedgeConfig,
    LinkFault,
    MembershipChange,
    PartitionPlan,
    ReconfigPlan,
    ReliabilityConfig,
    RunConfig,
)
from repro.validation import compare_cell
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=3, p=0.3, a=2, sigma=0.1, S=100.0, P=30.0)
#: the RunConfig fields that parameterize a run rather than the fabric
RUN_FIELDS = {"ops", "warmup", "seed", "mean_gap", "max_events"}
FABRIC_FIELDS = [f.name for f in dataclasses.fields(RunConfig)
                 if f.name not in RUN_FIELDS]
#: a non-default value for every fabric field
FABRIC_VALUES = {
    "faults": FaultPlan(seed=1, drop_rate=0.2),
    "partitions": PartitionPlan(links=[LinkFault(1, 2, 10.0, 20.0)]),
    "reliability": ReliabilityConfig(timeout=4.0),
    "failover": True,
    "monitor": True,
    "tracing": TraceConfig(),
    "reconfig": ReconfigPlan(changes=[MembershipChange(at=50.0,
                                                       joins=(5,))]),
    "quorum_weights": {1: 2.0},
    "hedge": HedgeConfig(),
    "cache": CacheConfig(capacity=1),
}


def _workload():
    return read_disturbance_workload(PARAMS, M=1)


class TestValidation:
    def test_defaults(self):
        config = RunConfig()
        assert config.ops == 4000
        assert config.resolved_warmup == 1000
        assert config.seed == 0
        assert config.resolved_reliability is None

    @pytest.mark.parametrize("kwargs", [
        {"ops": 0},
        {"ops": 100, "warmup": 100},
        {"warmup": -1},
        {"mean_gap": 0.0},
        {"max_events": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_positional_args_rejected(self):
        with pytest.raises(TypeError):
            RunConfig(4000)

    def test_no_fault_plan_collapses_to_none(self):
        assert RunConfig(faults=FaultPlan(seed=3)).faults is None
        plan = FaultPlan(seed=3, drop_rate=0.1)
        assert RunConfig(faults=plan).faults is plan

    def test_fault_plan_implies_default_reliability(self):
        # every knob that rides the reliable transport implies its
        # defaults, and the system builds exactly what the config reports.
        for protocol, config in (
            ("write_through",
             RunConfig(faults=FaultPlan(seed=1, drop_rate=0.1))),
            ("sc_abd", RunConfig(hedge=HedgeConfig())),
        ):
            assert config.reliability is None
            assert config.resolved_reliability == ReliabilityConfig()
            system = DSMSystem(protocol, N=PARAMS.N, config=config)
            assert system.reliability == config.resolved_reliability

    def test_with_revalidates(self):
        config = RunConfig(ops=1000, warmup=200)
        assert config.with_(ops=2000).warmup == 200
        with pytest.raises(ValueError):
            config.with_(ops=100)

    def test_round_trip(self):
        config = RunConfig(
            ops=1234, warmup=56, seed=7, mean_gap=8.5,
            faults=FaultPlan(seed=2, drop_rate=0.05,
                             crashes=(CrashWindow(1, 10.0, 20.0,
                                                  semantics="amnesia"),)),
            reliability=ReliabilityConfig(timeout=4.0),
            failover=True, monitor=True,
        )
        again = RunConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()
        assert again.failover and again.monitor
        assert again.faults.crashes[0].semantics == "amnesia"

    def test_failover_monitor_default_off(self):
        config = RunConfig()
        assert config.failover is False and config.monitor is False
        assert config.to_dict()["failover"] is False
        assert config.to_dict()["monitor"] is False

    def test_to_dict_resolves_warmup(self):
        assert RunConfig(ops=800).to_dict()["warmup"] == 200


class TestRemovedRunWorkloadForms:
    """The v1.0 keyword/positional forms were removed in 1.2."""

    def test_config_object_accepted(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        result = system.run_workload(_workload(), RunConfig(ops=400, seed=1))
        assert result.measured > 0

    def test_legacy_kwargs_raise(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        with pytest.raises(TypeError):
            system.run_workload(_workload(), num_ops=400, warmup=100, seed=1)

    def test_legacy_positional_num_ops_raises(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        with pytest.raises(TypeError, match="RunConfig"):
            system.run_workload(_workload(), 800)

    @pytest.mark.parametrize("field", FABRIC_FIELDS)
    def test_each_fabric_field_must_match(self, field):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        config = RunConfig(ops=400, **{field: FABRIC_VALUES[field]})
        with pytest.raises(ValueError,
                           match=rf"RunConfig {field} does not match"):
            system.run_workload(_workload(), config)

    def test_fabric_is_not_inherited_from_the_system(self):
        config = RunConfig(ops=400, faults=FaultPlan(seed=1, drop_rate=0.1))
        system = DSMSystem("write_through", N=3, S=100, P=30, config=config)
        with pytest.raises(ValueError, match="RunConfig faults does not"):
            system.run_workload(_workload(), RunConfig(ops=400))

    def test_matching_fabric_accepted(self):
        system = DSMSystem(
            "write_through", N=3, S=100, P=30,
            config=RunConfig(faults=FaultPlan(seed=1, drop_rate=0.1)))
        config = RunConfig(ops=400, seed=2,
                           faults=FaultPlan(seed=1, drop_rate=0.1))
        result = system.run_workload(_workload(), config)
        assert result.measured > 0

    def test_no_config_runs_the_system_config(self):
        config = RunConfig(ops=300, warmup=50, seed=4, monitor=True)
        system = DSMSystem("write_through", N=3, S=100, P=30, config=config)
        result = system.run_workload(_workload())
        again = DSMSystem("write_through", N=3, S=100, P=30, config=config)
        expected = again.run_workload(_workload(), config)
        assert (result.total_ops, result.warmup) == (300, 50)
        assert (result.acc, result.messages, result.end_time) == (
            expected.acc, expected.messages, expected.end_time)

    def test_constructor_rejects_a_non_runconfig(self):
        with pytest.raises(TypeError, match="RunConfig"):
            DSMSystem("write_through", N=3, config={"monitor": True})


class TestOneConfigManySystems:
    """A RunConfig is a value: every system built from it runs alike."""

    POINT = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100, P=30)

    @pytest.mark.parametrize("protocol,M,config", [
        ("write_through", 2,
         RunConfig(ops=400, seed=1, cache=CacheConfig(capacity=1))),
        ("sc_abd", 1, RunConfig(ops=400, seed=1, hedge=HedgeConfig())),
    ], ids=["cache", "hedge"])
    def test_compare_cell_builds_every_knob(self, protocol, M, config):
        cell = compare_cell(protocol, self.POINT, M=M, config=config)
        assert math.isfinite(cell.acc_sim)

    def test_two_simulations_of_one_config_agree(self):
        run = RunConfig(ops=400, seed=1,
                        faults=FaultPlan(seed=3, drop_rate=0.1))
        first = api.simulate("write_through", self.POINT, "read", run=run)
        second = api.simulate("write_through", self.POINT, "read", run=run)
        assert first.messages == 1756
        assert first.acc == pytest.approx(57.893, abs=5e-4)
        assert (first.acc, first.messages, first.end_time) == (
            second.acc, second.messages, second.end_time)


class TestRemovedCompareCellForms:
    def test_config_object_accepted(self):
        cell = compare_cell("write_through", PARAMS, M=1,
                            config=RunConfig(ops=400, warmup=100, seed=0))
        assert cell.acc_sim >= 0

    def test_legacy_kwargs_raise(self):
        with pytest.raises(TypeError):
            compare_cell("write_through", PARAMS, M=1,
                         total_ops=400, warmup=100, seed=3)

    def test_legacy_positional_total_ops_raises(self):
        with pytest.raises(TypeError, match="RunConfig"):
            compare_cell("write_through", PARAMS, M=1, config=400)
