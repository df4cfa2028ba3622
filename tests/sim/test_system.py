"""Unit tests for the DSMSystem facade."""

import re

import pytest

from repro.core.parameters import WorkloadParams
from repro.sim import (CrashWindow, DSMSystem, FaultPlan, HedgeConfig,
                       MembershipChange, ReconfigPlan, RunConfig)
from repro.sim.system import _FAMILY_RULES
from repro.workloads import read_disturbance_workload

#: a 50-op run config setting each protocol-family rule's knob
FAMILY_CASES = {
    "failover": RunConfig(ops=50, seed=1, failover=True),
    "amnesia": RunConfig(ops=50, seed=1, faults=FaultPlan(
        crashes=[CrashWindow(2, 0.0, 50.0, "amnesia")])),
    "reconfig": RunConfig(ops=50, seed=1, reconfig=ReconfigPlan(
        changes=[MembershipChange(at=100.0, joins=(6,))])),
    "quorum_weights": RunConfig(ops=50, seed=1, quorum_weights={1: 2.0}),
    "hedge": RunConfig(ops=50, seed=1, hedge=HedgeConfig()),
}


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            DSMSystem("write_through", N=0)
        with pytest.raises(ValueError):
            DSMSystem("write_through", N=3, M=0)
        with pytest.raises(KeyError):
            DSMSystem("mesi", N=3)

    def test_accepts_spec_object(self):
        from repro.protocols import get_protocol
        system = DSMSystem(get_protocol("berkeley"), N=2)
        assert system.spec.name == "berkeley"

    def test_node_layout(self):
        system = DSMSystem("write_through", N=4, M=2)
        assert system.sequencer_id == 5
        assert system.all_nodes == (1, 2, 3, 4, 5)
        assert len(system.nodes) == 5


class TestProtocolFamilyRules:
    """Every run knob either composes with a protocol family or is
    rejected with the rule's named error."""

    @pytest.mark.parametrize("protocol", ["write_through", "sc_abd"])
    @pytest.mark.parametrize("knob", sorted(_FAMILY_RULES))
    def test_knob_builds_or_names_its_family(self, knob, protocol):
        family, is_set, error = _FAMILY_RULES[knob]
        config = FAMILY_CASES[knob]
        assert is_set(config)
        if (protocol == "sc_abd") != (family == "quorum"):
            with pytest.raises(ValueError,
                               match=re.escape(f"{protocol} {error}")):
                DSMSystem(protocol, N=4, config=config)
            return
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100, P=30)
        system = DSMSystem(protocol, N=4, config=config)
        result = system.run_workload(read_disturbance_workload(params, M=1))
        assert result.total_ops == 50
        assert result.measured > 0


class TestRunWorkload:
    def _run(self, protocol="write_through", **kw):
        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2, S=100, P=30)
        wl = read_disturbance_workload(params, M=2)
        system = DSMSystem(protocol, N=3, M=2, S=100, P=30)
        defaults = dict(ops=600, warmup=100, seed=1)
        defaults.update(kw)
        return system, system.run_workload(wl, RunConfig(**defaults))

    def test_all_ops_complete(self):
        system, res = self._run()
        assert res.measured == 500
        assert system.metrics.completed_count == 600

    def test_acc_reproducible_with_seed(self):
        _, r1 = self._run(seed=42)
        _, r2 = self._run(seed=42)
        assert r1.acc == r2.acc

    def test_different_seeds_differ(self):
        _, r1 = self._run(seed=1)
        _, r2 = self._run(seed=2)
        assert r1.acc != r2.acc

    def test_warmup_must_be_smaller(self):
        with pytest.raises(ValueError):
            self._run(ops=100, warmup=100)

    def test_workload_object_count_checked(self):
        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2)
        wl = read_disturbance_workload(params, M=5)
        system = DSMSystem("write_through", N=3, M=2)
        with pytest.raises(ValueError):
            system.run_workload(wl, RunConfig(ops=100, warmup=10))

    def test_cost_conservation(self):
        """Every charged message cost lands on exactly one operation."""
        system, res = self._run()
        total_attr = system.total_attributed_cost()
        assert system.metrics.unattributed_cost == 0.0
        # recompute total message cost from records
        assert total_attr == pytest.approx(
            sum(r.cost for r in system.metrics.records())
        )

    def test_coherence_after_run(self):
        system, _ = self._run(protocol="berkeley")
        system.check_coherence()

    def test_clock_is_a_plain_float(self):
        """The arrival gaps reach the scheduler as Python floats, so no
        numpy scalar leaks into the clock, the result or the op records."""
        system, res = self._run()
        assert type(system.scheduler.now) is float
        assert type(res.end_time) is float
        records = system.metrics.records()
        assert len(records) == 600
        for rec in records:
            assert type(rec.issue_time) is float
            assert type(rec.complete_time) is float

    def test_max_events_cutoff_is_not_reported_as_deadlock(self):
        """A run cut short by the max_events safety net still has events
        pending; the error names the cap and both counts."""
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.2, S=100, P=30)
        system = DSMSystem("berkeley", N=4, M=1)
        with pytest.raises(RuntimeError) as info:
            system.run_workload(read_disturbance_workload(params),
                                RunConfig(ops=1000, seed=1, max_events=500))
        message = str(info.value)
        assert "deadlock" not in message
        pending = len(system.scheduler)
        assert pending > 0
        assert (f"max_events=500 ({system.scheduler.executed} events "
                f"executed, {pending} pending)") in message


class TestInspection:
    def test_copy_state_and_value(self):
        system = DSMSystem("write_through", N=2, M=1, S=100, P=30)
        system.submit(1, "write", params=5)
        system.settle()
        assert system.copy_state(1) == "INVALID"
        assert system.copy_value(3) == 5
        assert system.authoritative_value() == 5

    def test_check_coherence_detects_corruption(self):
        system = DSMSystem("write_through", N=2, M=1, S=100, P=30)
        system.submit(1, "read")
        system.settle()
        # corrupt a VALID copy behind the protocol's back
        system.nodes[1].process_for(1).value = "garbage"
        with pytest.raises(AssertionError):
            system.check_coherence()


@pytest.mark.parametrize("protocol", ["berkeley", "write_through", "sc_abd"])
@pytest.mark.parametrize("kind", ["bogus", "acquire"])
def test_submit_rejects_unknown_kind(protocol, kind):
    system = DSMSystem(protocol, N=2, M=1, S=100, P=1)
    with pytest.raises(ValueError, match="read, write, eject"):
        system.submit(2, kind)
    assert len(system.scheduler) == 0
