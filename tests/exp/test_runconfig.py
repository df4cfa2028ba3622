"""RunConfig semantics; the pre-1.2 call forms must raise TypeError."""

import pytest

from repro.core.parameters import WorkloadParams
from repro.sim import (
    CrashWindow,
    DSMSystem,
    FaultPlan,
    HedgeConfig,
    ReliabilityConfig,
    RunConfig,
)
from repro.validation import compare_cell
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=3, p=0.3, a=2, sigma=0.1, S=100.0, P=30.0)


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
            system = DSMSystem.from_config(protocol, PARAMS, config)
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

    def test_fabric_mismatch_rejected(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        config = RunConfig(ops=400, faults=FaultPlan(seed=1, drop_rate=0.2))
        with pytest.raises(ValueError, match="fault"):
            system.run_workload(_workload(), config)

    def test_failover_mismatch_rejected(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        with pytest.raises(ValueError, match="failover"):
            system.run_workload(_workload(), RunConfig(ops=400,
                                                       failover=True))

    def test_monitor_mismatch_rejected(self):
        system = DSMSystem("write_through", N=3, S=100, P=30)
        with pytest.raises(ValueError, match="monitor"):
            system.run_workload(_workload(), RunConfig(ops=400,
                                                       monitor=True))

    def test_matching_fabric_accepted(self):
        plan = FaultPlan(seed=1, drop_rate=0.1)
        system = DSMSystem("write_through", N=3, S=100, P=30,
                           faults=plan.replay())
        config = RunConfig(ops=400, seed=2,
                           faults=FaultPlan(seed=1, drop_rate=0.1))
        result = system.run_workload(_workload(), config)
        assert result.measured > 0


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
