"""Online replica-set reconfiguration: plans, geometry, transitions.

Covers the epoch-based membership-change subsystem end to end: the
``ReconfigPlan`` value object (validation, serialization, identity), the
``MembershipView`` joint-quorum geometry (including weighted votes, pinned
against the static core quorum), live join/leave transitions under the
consistency monitor, transfer retry and abort under crashes, the
exactly-once re-drive across an epoch boundary — including the mutation
test that sabotages the re-drive and asserts the monitor catches the
divergence — pay-for-what-you-use canonicalization, and the chaos
generator's quorum-only reconfiguration draws.
"""

import random
from dataclasses import replace

import pytest

from repro.chaos.generate import ChaosOptions, generate_cell
from repro.core.closed_forms import (
    acc_sc_abd_rd,
    closed_form_acc,
    weighted_quorum_acc,
)
from repro.core.parameters import Deviation, WorkloadParams
from repro.exp.runner import run_cell
from repro.exp.spec import SweepCell
from repro.protocols.sc_abd import SCABDProcess, core_quorum
from repro.sim import (
    CrashWindow,
    DSMSystem,
    FaultPlan,
    MembershipChange,
    ReconfigPlan,
    RunConfig,
)
from repro.sim.reconfig import MembershipView
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.4, a=3, sigma=0.15, S=100.0, P=30.0)


def _run(plan, seed, ops=300, faults=None, mean_gap=4.0):
    """One monitored SC-ABD workload run under ``plan``; returns
    ``(system, result)``."""
    config = RunConfig(ops=ops, warmup=0, seed=seed, mean_gap=mean_gap,
                       reconfig=plan, faults=faults, monitor=True)
    system = DSMSystem("sc_abd", N=PARAMS.N, M=2, config=config)
    result = system.run_workload(read_disturbance_workload(PARAMS, M=2))
    return system, result


class TestMembershipChange:
    def test_joins_and_leaves_sorted_and_deduped(self):
        change = MembershipChange(at=10.0, joins=(7, 6, 7), leaves=(3, 2))
        assert change.joins == (6, 7)
        assert change.leaves == (2, 3)

    def test_empty_change_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            MembershipChange(at=10.0)

    def test_join_leave_overlap_rejected(self):
        with pytest.raises(ValueError, match="join and leave"):
            MembershipChange(at=10.0, joins=(6,), leaves=(6,))

    def test_bad_node_index_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            MembershipChange(at=10.0, joins=(0,))

    def test_bad_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MembershipChange(at=-1.0, joins=(6,))
        with pytest.raises(ValueError, match="finite"):
            MembershipChange(at=float("inf"), joins=(6,))


class TestReconfigPlan:
    def test_changes_kept_sorted_by_time(self):
        plan = ReconfigPlan(changes=(
            MembershipChange(at=200.0, leaves=(2,)),
            MembershipChange(at=100.0, joins=(6,)),
        ))
        assert [c.at for c in plan.changes] == [100.0, 200.0]

    def test_same_instant_changes_rejected(self):
        with pytest.raises(ValueError, match="same time"):
            ReconfigPlan(changes=(
                MembershipChange(at=100.0, joins=(6,)),
                MembershipChange(at=100.0, leaves=(2,)),
            ))

    def test_validate_rejects_joining_a_member(self):
        plan = ReconfigPlan(changes=(MembershipChange(at=1.0, joins=(3,)),))
        with pytest.raises(ValueError, match="already replica-set members"):
            plan.validate_membership(5)

    def test_validate_rejects_leaving_a_non_member(self):
        plan = ReconfigPlan(changes=(MembershipChange(at=1.0, leaves=(9,)),))
        with pytest.raises(ValueError, match="not replica-set members"):
            plan.validate_membership(5)

    def test_validate_rejects_shrinking_below_two(self):
        plan = ReconfigPlan(changes=(
            MembershipChange(at=1.0, leaves=(2, 3, 4, 5)),
        ))
        with pytest.raises(ValueError, match="fewer than two"):
            plan.validate_membership(5)

    def test_validate_walks_the_schedule(self):
        # node 6 joins, later leaves: legal exactly in that order.
        ReconfigPlan(changes=(
            MembershipChange(at=1.0, joins=(6,)),
            MembershipChange(at=2.0, leaves=(6,)),
        )).validate_membership(5)
        with pytest.raises(ValueError, match="not replica-set members"):
            ReconfigPlan(changes=(
                MembershipChange(at=1.0, leaves=(6,)),
                MembershipChange(at=2.0, joins=(6,)),
            )).validate_membership(5)

    def test_none_plan_and_identity(self):
        assert ReconfigPlan().is_none
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=100.0, joins=(6,)),
        ))
        assert not plan.is_none
        assert plan == replace(plan)
        assert hash(plan) == hash(replace(plan))
        assert plan != ReconfigPlan(seed=4, changes=plan.changes)

    def test_round_trip(self):
        plan = ReconfigPlan(seed=7, changes=(
            MembershipChange(at=100.0, joins=(6,)),
            MembershipChange(at=250.0, joins=(7,), leaves=(2,)),
        ))
        assert ReconfigPlan.from_dict(plan.to_dict()) == plan
        assert ReconfigPlan.from_dict(plan.to_dict()).to_dict() \
            == plan.to_dict()

    def test_describe(self):
        plan = ReconfigPlan(seed=7, changes=(
            MembershipChange(at=100.0, joins=(6,), leaves=(2,)),
        ))
        text = plan.describe()
        assert "seed=7" in text and "+6" in text and "-2" in text
        assert ReconfigPlan().describe() == "no reconfiguration"

    def test_max_node(self):
        plan = ReconfigPlan(changes=(
            MembershipChange(at=1.0, joins=(8,), leaves=(2,)),
        ))
        assert plan.max_node() == 8
        assert ReconfigPlan().max_node() == 0


class TestMembershipViewGeometry:
    def test_unweighted_core_matches_closed_form(self):
        """The view's core is the static fast path's, bit for bit."""
        for n_members in (2, 3, 4, 5, 6, 7):
            nodes = tuple(range(1, n_members + 1))
            assert MembershipView(nodes).core() == core_quorum(nodes)

    def test_weighted_core_matches_closed_form(self):
        # a 3-vote node plus the heaviest-ranked 1-vote node is already a
        # majority of 7 votes
        view = MembershipView(range(1, 6), weights={5: 3.0})
        assert view.core() == (1, 5)

    def test_joint_satisfaction_needs_both_majorities(self):
        view = MembershipView((1, 3, 4, 5, 6))
        view.joint_old = (1, 2, 3, 4, 5)
        # majority of the new set that misses the old one: not enough
        assert view.majority_of((1, 4, 6), view.committed)
        assert not view.satisfied((4, 5, 6))
        assert view.satisfied((1, 3, 4))      # majority of both
        view.joint_old = None
        assert view.satisfied((4, 5, 6))      # static mode: new only

    def test_unit_weights_count_as_the_weighted_sums(self):
        """Without weights the geometry counts members; every answer
        equals the weighted path's with every vote 1.0."""
        rng = random.Random(4)
        for _ in range(300):
            members = rng.sample(range(1, 12), rng.randint(0, 9))
            counted = MembershipView(members)
            summed = MembershipView(members, weights={0: 1.0})
            assert counted.weights is None and summed.weights is not None
            others = rng.sample(range(1, 12), rng.randint(0, 11))
            responders = others + rng.sample(others, len(others) // 3)
            for group in (members, others, responders):
                assert counted.ranked(group) == summed.ranked(group)
                assert (counted.majority_of(responders, group)
                        == summed.majority_of(responders, group))
                assert (counted.quorum_prefix(others, group)
                        == summed.quorum_prefix(others, group))
            assert counted.core() == summed.core()

    def test_broadcast_spans_both_sets_in_transition(self):
        view = MembershipView((1, 3, 4, 5, 6))
        assert view.broadcast() == (1, 3, 4, 5, 6)
        view.joint_old = (1, 2, 3, 4, 5)
        assert view.broadcast() == (1, 2, 3, 4, 5, 6)


class TestOnlineTransitions:
    def test_join_commits_with_state_transfer(self):
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=900.0, joins=(6,)),
        ))
        system, result = _run(plan, seed=5)
        rc = system.metrics.reconfig
        assert rc.transitions == 1 and rc.commits == 1 and rc.aborts == 0
        assert system.cluster.epoch == 1
        assert system.membership.committed == (1, 2, 3, 4, 5, 6)
        assert rc.transfer_objects >= 1 and rc.transfer_cost > 0.0
        assert system.metrics.average_cost_breakdown()["reconfig"] > 0.0
        assert result.incomplete_ops == 0
        assert not result.violations

    def test_leave_commits_without_joiner_catchup(self):
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=900.0, leaves=(2,)),
        ))
        system, result = _run(plan, seed=5)
        rc = system.metrics.reconfig
        assert rc.commits == 1 and rc.aborts == 0
        assert system.membership.committed == (1, 3, 4, 5)
        assert result.incomplete_ops == 0
        assert not result.violations

    def test_join_leave_chain_commits_twice(self):
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=900.0, joins=(6,)),
            MembershipChange(at=1800.0, leaves=(2,)),
        ))
        system, result = _run(plan, seed=5)
        rc = system.metrics.reconfig
        assert rc.transitions == 2 and rc.commits == 2
        assert system.cluster.epoch == 2
        assert system.membership.committed == (1, 3, 4, 5, 6)
        assert not system.membership.in_transition
        assert result.incomplete_ops == 0
        assert not result.violations

    def test_transfer_retries_through_a_short_joiner_crash(self):
        """The joiner is down when the transition begins; the transfer
        backs off, retries, and commits once the joiner recovers."""
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=500.0, joins=(6,)),
        ))
        faults = FaultPlan(seed=1, crashes=[
            CrashWindow(6, 400.0, 700.0, "durable"),
        ])
        system, result = _run(plan, seed=5, faults=faults)
        rc = system.metrics.reconfig
        assert rc.transfer_retries > 0
        assert rc.commits == 1 and rc.aborts == 0
        assert system.membership.committed == (1, 2, 3, 4, 5, 6)
        assert not result.violations

    def test_unreachable_joiner_aborts_and_rolls_back(self):
        """A joiner dead past the whole retry budget: the transition
        aborts, the view rolls back, and the run stays consistent —
        availability is never held hostage by a stuck transfer."""
        plan = ReconfigPlan(seed=3, changes=(
            MembershipChange(at=500.0, joins=(6,)),
        ))
        faults = FaultPlan(seed=1, crashes=[
            CrashWindow(6, 400.0, 9000.0, "durable"),
        ])
        system, result = _run(plan, seed=5, ops=400, mean_gap=10.0,
                              faults=faults)
        rc = system.metrics.reconfig
        assert rc.aborts == 1 and rc.commits == 0
        assert rc.transfers_failed == 1
        assert system.cluster.epoch == 0
        assert system.membership.committed == (1, 2, 3, 4, 5)
        assert not system.membership.in_transition
        assert result.incomplete_ops == 0
        assert not result.violations


#: the exactly-once fixture: at seed 25 this schedule commits twice and
#: re-drives exactly one in-flight operation at an epoch boundary, and
#: the honest run is clean — the precondition the mutation test needs.
EXACTLY_ONCE_PLAN = ReconfigPlan(seed=3, changes=(
    MembershipChange(at=900.0, joins=(6,)),
    MembershipChange(at=1800.0, leaves=(2,)),
))
EXACTLY_ONCE_SEED = 25


class TestExactlyOnceAcrossEpochBoundary:
    def test_honest_redrive_completes_every_op_exactly_once(self):
        system, result = _run(EXACTLY_ONCE_PLAN, seed=EXACTLY_ONCE_SEED)
        rc = system.metrics.reconfig
        assert rc.commits == 2
        assert rc.ops_redriven >= 1
        assert result.incomplete_ops == 0
        assert not result.violations

    def test_sabotaged_redrive_is_caught_by_the_monitor(self, monkeypatch):
        """Mutation test: replace the epoch-boundary re-drive with a fake
        completion (the in-flight operation 'finishes' against the local
        replica instead of re-entering its phase under the new quorum).
        The stale value it returns is pinned by the other nodes' program
        order, so the monitor must report a sequential-consistency
        violation — proving the exactly-once machinery is load-bearing,
        not decorative."""

        def sabotage(self):
            if self._op is None:
                return False
            self._cancel_timer()
            self._gen += 1
            op, self._op = self._op, None
            self._phase = None
            self.ctx.enable_local_queue()
            self.ctx.complete(
                op, self.value if op.kind == "read" else None)
            return True

        monkeypatch.setattr(SCABDProcess, "restart_inflight", sabotage)
        system, result = _run(EXACTLY_ONCE_PLAN, seed=EXACTLY_ONCE_SEED)
        assert result.violations, "sabotaged re-drive escaped the monitor"
        assert any(v.kind == "sequential_consistency"
                   for v in result.violations)


class TestPayForWhatYouUse:
    def test_none_plan_canonicalizes_away(self):
        with_none = RunConfig(ops=200, seed=1, monitor=True,
                              reconfig=ReconfigPlan())
        without = RunConfig(ops=200, seed=1, monitor=True)
        assert with_none.to_dict() == without.to_dict()
        assert with_none.reconfig is None

    def test_system_drops_a_none_plan(self):
        system = DSMSystem("sc_abd", N=4,
                           config=RunConfig(reconfig=ReconfigPlan()))
        assert system.reconfig is None

    def test_rows_identical_with_and_without_none_plan(self):
        cells = [
            SweepCell(protocol="sc_abd", params=PARAMS, kind="sim", M=2,
                      config=config)
            for config in (
                RunConfig(ops=200, warmup=0, seed=1, monitor=True),
                RunConfig(ops=200, warmup=0, seed=1, monitor=True,
                          reconfig=ReconfigPlan()),
            )
        ]
        rows = [run_cell(cell) for cell in cells]
        assert rows[0] == rows[1]
        assert "reconfig" not in rows[0]


class TestChaosGeneratorReconfig:
    OPTIONS = ChaosOptions(base_seed=7, seeds=30,
                           protocols=("sc_abd", "write_through"))

    def test_non_quorum_cells_never_draw_reconfig(self):
        for fuzz_seed in range(self.OPTIONS.seeds):
            cell = generate_cell("write_through", fuzz_seed, self.OPTIONS)
            assert cell.config.reconfig is None

    def test_quorum_cells_draw_valid_schedules(self):
        with_plan = 0
        for fuzz_seed in range(self.OPTIONS.seeds):
            cell = generate_cell("sc_abd", fuzz_seed, self.OPTIONS)
            plan = cell.config.reconfig
            if plan is None:
                continue
            with_plan += 1
            assert not plan.is_none
            plan.validate_membership(self.OPTIONS.N + 1)
            horizon = self.OPTIONS.ops * self.OPTIONS.mean_gap
            assert all(0.0 < c.at < horizon for c in plan.changes)
        # the two 0.55-probability windows make schedules common
        assert with_plan >= self.OPTIONS.seeds // 3

    def test_generation_is_deterministic(self):
        for fuzz_seed in (0, 7, 19):
            a = generate_cell("sc_abd", fuzz_seed, self.OPTIONS)
            b = generate_cell("sc_abd", fuzz_seed, self.OPTIONS)
            assert a.config.to_dict() == b.config.to_dict()


class TestWeightedQuorums:
    def test_all_ones_weights_match_unweighted_closed_form(self):
        """The weighted geometry (the membership view's core) prices
        all-ones votes exactly as the count majority."""
        for n in (2, 3, 4, 5, 8):
            ones = {node: 1.0 for node in range(1, n + 2)}
            params = WorkloadParams(N=n, p=0.3, a=1, sigma=0.1, xi=0.1,
                                    beta=2, S=100.0, P=30.0)
            for deviation in Deviation:
                assert (weighted_quorum_acc(params, deviation, ones)
                        == closed_form_acc("sc_abd", params, deviation))

    def test_weighted_closed_form_tracks_the_simulator(self):
        """The weighted-majority acc update stays within the paper's
        ±8% sim-vs-analytic bound (observed well under 1%)."""
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1,
                                S=100.0, P=30.0)
        weights = {5: 3.0}
        analytic = float(acc_sc_abd_rd(
            params.p, params.sigma, params.a, params.S, params.P,
            params.N, weights=weights))
        unweighted = float(acc_sc_abd_rd(
            params.p, params.sigma, params.a, params.S, params.P,
            params.N))
        assert analytic != unweighted  # the weights genuinely reshape acc
        pairs = tuple(weights.items())
        config = RunConfig(ops=2000, warmup=500, seed=0,
                           quorum_weights=pairs)
        system = DSMSystem("sc_abd", N=params.N, M=5, config=config)
        result = system.run_workload(read_disturbance_workload(params, M=5))
        assert abs(result.acc - analytic) / analytic < 0.08
