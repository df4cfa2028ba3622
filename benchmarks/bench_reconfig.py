"""Reconfiguration benchmark: acc and availability across membership
transitions.

Not a paper artifact — the paper's replica set is fixed for the lifetime
of a run — but the study the online-reconfiguration subsystem
(:mod:`repro.sim.reconfig`) exists to answer: what does changing the
replica set *without stopping the world* cost?  Two parts:

* **acc across transition scenarios** — SC-ABD under no change, a join,
  a leave, a join+leave chain, and a join+leave chain overlapping a
  durable crash.  Each membership change runs as a joint-quorum
  transition (phases intersect majorities of both the old and the new
  set) with versioned state transfer for the joiner.  The ``reconfig``
  share prices announcements, transfer and commit sync — all small —
  while any *lasting* ``acc`` shift is the honest cost of the final
  membership itself (a six-member set simply has wider majorities than a
  five-member one).  Monitor on everywhere; every cell must
  finish with zero violations, zero incomplete operations, and every
  transition committed (no aborts) except under the crash, where an
  abort is legitimate but a violation never is.

* **availability during a fault-free transition** — the fraction of
  operations issued inside the transition window that complete within
  it.  A joint transition never blocks clients (in-flight operations are
  re-driven across the epoch boundary exactly once), so availability is
  exactly 1.0 — the whole point of *online* reconfiguration.

The default-ops (2000) rows are committed at
``benchmarks/baselines/reconfig_acc.jsonl`` and
``benchmarks/baselines/reconfig_availability.jsonl``; CI re-runs the
study on a reduced budget (``REPRO_RECONFIG_OPS``) and uploads the fresh
artifacts.
"""

import json
import math
import os

from repro.core.parameters import WorkloadParams
from repro.exp import SweepCell, SweepSpec, run_sweep
from repro.sim import (
    CrashWindow,
    DSMSystem,
    FaultPlan,
    MembershipChange,
    ReconfigPlan,
    RunConfig,
)
from repro.workloads import read_disturbance_workload

from .conftest import emit

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)
WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "2"))
#: operations per sweep cell; the CI smoke run shrinks this via env
OPS = int(os.environ.get("REPRO_RECONFIG_OPS", "2000"))

JOIN_AT, LEAVE_AT = 1500.0, 3000.0
JOINER = PARAMS.N + 2  # first non-member node index

#: the transition scenarios of the acc grid, in row order
SCENARIOS = ("none", "join", "leave", "join+leave", "join+leave+crash")

#: availability is scored inside this window around the first transition
AVAIL_WINDOW = (JOIN_AT, JOIN_AT + 1000.0)
#: ops issued closer than this to the window end are not scored (they
#: could not finish in time even on a fault-free static fabric)
AVAIL_MARGIN = 100.0


def _plan(scenario: str) -> ReconfigPlan:
    changes = {
        "none": (),
        "join": (MembershipChange(at=JOIN_AT, joins=(JOINER,)),),
        "leave": (MembershipChange(at=LEAVE_AT, leaves=(2,)),),
        "join+leave": (
            MembershipChange(at=JOIN_AT, joins=(JOINER,)),
            MembershipChange(at=LEAVE_AT, leaves=(2,)),
        ),
        "join+leave+crash": (
            MembershipChange(at=JOIN_AT, joins=(JOINER,)),
            MembershipChange(at=LEAVE_AT, leaves=(2,)),
        ),
    }[scenario]
    return ReconfigPlan(seed=13, changes=changes)


def _faults(scenario: str):
    if scenario != "join+leave+crash":
        return None
    # node 4 (a quorum member, but neither the joiner nor the leaver)
    # is down across the first transition: state transfer must route
    # around it and the joint quorums must absorb the loss.
    return FaultPlan(seed=17, crashes=[
        CrashWindow(4, JOIN_AT - 200.0, JOIN_AT + 800.0, "durable"),
    ])


def _config(scenario: str) -> RunConfig:
    return RunConfig(ops=OPS, warmup=OPS // 8, seed=21,
                     reconfig=_plan(scenario),
                     faults=_faults(scenario), monitor=True)


def build_spec() -> SweepSpec:
    return SweepSpec.explicit([
        SweepCell(protocol="sc_abd", params=PARAMS, kind="sim", M=2,
                  config=_config(scenario))
        for scenario in SCENARIOS
    ])


def run_grid(out_path=None):
    result = run_sweep(build_spec(), workers=WORKERS, out_path=out_path)
    assert result.failed == 0, [r for r in result.rows
                                if r["status"] == "failed"]
    return dict(zip(SCENARIOS, result.rows))


def test_acc_across_transitions(benchmark, results_dir):
    table = benchmark.pedantic(run_grid,
                               args=(results_dir / "reconfig_acc.jsonl",),
                               rounds=1, iterations=1)
    lines = [
        "SC-ABD acc across online membership transitions "
        f"(N=4, joins at t={JOIN_AT:g}, leaves at t={LEAVE_AT:g}; "
        "monitor on)",
        f"{'scenario':18} {'acc':>9} {'reconfig':>9} {'transfer':>9} "
        f"{'commits':>8} {'redriven':>9}",
    ]
    for scenario in SCENARIOS:
        row = table[scenario]
        lines.append(
            f"{scenario:18} {row['acc_sim']:9.2f} "
            f"{row.get('acc_reconfig_share', 0.0):9.4f} "
            f"{row.get('transfer_cost', 0.0):9.1f} "
            f"{row.get('reconfig_commits', 0):8d} "
            f"{row.get('reconfig_ops_redriven', 0):9d}"
        )
    emit(results_dir, "reconfig_acc_vs_scenario.txt", "\n".join(lines))

    for scenario, row in table.items():
        assert math.isfinite(row["acc_sim"]), scenario
        assert row["violations"] == 0, (scenario, row)
        assert row["incomplete_ops"] == 0, (scenario, row)

    # pay-for-what-you-use: a no-change plan *is* no plan — the config
    # canonicalizes identically, so the cell (and its cache key and its
    # row) is byte-identical to a run that never heard of reconfiguration.
    with_none = RunConfig(ops=OPS, warmup=OPS // 8, seed=21, monitor=True,
                          reconfig=ReconfigPlan())
    without = RunConfig(ops=OPS, warmup=OPS // 8, seed=21, monitor=True)
    assert with_none.to_dict() == without.to_dict()
    assert "reconfig" not in table["none"]
    assert "acc_reconfig_share" not in table["none"]

    # fault-free transitions all commit, never abort, and re-drive the
    # operations in flight at each epoch boundary at most once each.
    for scenario, commits in (("join", 1), ("leave", 1), ("join+leave", 2)):
        row = table[scenario]
        assert row["reconfig_transitions"] == commits, (scenario, row)
        assert row["reconfig_commits"] == commits, (scenario, row)
        assert row["reconfig_aborts"] == 0, (scenario, row)
        assert row["final_epoch"] == commits, (scenario, row)
        assert row["acc_reconfig_share"] > 0.0, (scenario, row)

    # a joiner always pays versioned catch-up; a pure leave pays only
    # the commit-time new-quorum sync, and only for members that were
    # actually behind when the transition committed (possibly none).
    assert table["join"]["transfer_cost"] > 0.0
    assert table["join"]["transfer_objects"] >= 2
    assert table["join"]["transfer_cost"] >= table["leave"]["transfer_cost"]

    # under the overlapping crash the run must stay consistent and the
    # schedule must resolve every transition one way or the other —
    # committed, or cleanly rolled back.
    crash_row = table["join+leave+crash"]
    assert crash_row["reconfig_transitions"] == 2, crash_row
    assert (crash_row["reconfig_commits"]
            + crash_row["reconfig_aborts"]) == 2, crash_row

    # the join scenario *ends* with six members, so its steady state
    # genuinely pays wider quorums — acc rises; the leave and join+leave
    # scenarios end at four and five members and stay within 10% of the
    # static run: the transition machinery itself is cheap.
    base = table["none"]["acc_sim"]
    assert table["join"]["acc_sim"] > base, (table["join"]["acc_sim"], base)
    for scenario in ("leave", "join+leave"):
        assert abs(table[scenario]["acc_sim"] - base) < 0.10 * base, (
            scenario, table[scenario]["acc_sim"], base)


def measure_availability(scenario):
    """Run one transition scenario and score the fraction of operations
    issued inside the transition window that complete within it."""
    config = RunConfig(ops=max(400, OPS // 2), warmup=0, seed=7,
                       reconfig=_plan(scenario), monitor=True)
    system = DSMSystem("sc_abd", N=PARAMS.N, M=2, config=config)
    result = system.run_workload(read_disturbance_workload(PARAMS, M=2))
    assert result.incomplete_ops == 0, (scenario, result.incomplete_ops)
    assert not result.violations, (scenario, result.violations)

    start, end = AVAIL_WINDOW
    window = [r for r in system.metrics.records()
              if start <= r.issue_time <= end - AVAIL_MARGIN]
    assert window, scenario
    served = [r for r in window if r.complete_time < end]
    rc = system.metrics.reconfig
    return {
        "scenario": scenario,
        "acc": system.metrics.average_cost(),
        "window_ops": len(window),
        "served": len(served),
        "availability": len(served) / len(window),
        "transitions": rc.transitions,
        "commits": rc.commits,
        "ops_redriven": rc.ops_redriven,
        "violations": len(result.violations),
    }


def run_availability():
    return [measure_availability(s) for s in ("none", "join", "join+leave")]


def test_availability_during_transition(benchmark, results_dir):
    rows = benchmark.pedantic(run_availability, rounds=1, iterations=1)
    emit(results_dir, "reconfig_availability.jsonl",
         "\n".join(json.dumps(row) for row in rows))
    lines = [
        "operations served inside the transition window "
        f"[{AVAIL_WINDOW[0]:g}, {AVAIL_WINDOW[1]:g}] (monitor on)",
        f"{'scenario':12} {'acc':>10} {'avail':>8} {'redriven':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['scenario']:12} {row['acc']:10.2f} "
            f"{row['availability']:8.3f} {row['ops_redriven']:9d}"
        )
    emit(results_dir, "reconfig_availability.txt", "\n".join(lines))

    for row in rows:
        # online means online: a fault-free membership transition stalls
        # no client — every in-window operation completes in-window.
        assert row["availability"] == 1.0, row
        assert row["violations"] == 0, row
    by_scenario = {row["scenario"]: row for row in rows}
    assert by_scenario["none"]["transitions"] == 0
    assert by_scenario["join"]["commits"] == 1
    assert by_scenario["join+leave"]["commits"] == 2
