"""Crash-recovery benchmark: ``acc`` vs crash count for every protocol.

Not a paper artifact — the paper's nodes never lose state — but the
question the recovery subsystem (:mod:`repro.sim.recovery`) exists to
answer: what does ``acc`` cost when nodes suffer amnesia crashes and must
resynchronize, and the sequencer itself can fail over?  The study sweeps
every registered sequencer-based protocol over an increasing number of
amnesia crash windows (the heaviest schedule crashes the sequencer,
exercising standby election) with the consistency monitor attached.
Quorum protocols (sc_abd) have no sequencer to fail over, so the system
rejects them under ``failover=True``; they are not in the grid.

Expectations encoded as assertions: every cell completes with zero
consistency violations, the recovery share is zero without crashes and
positive with them, and the sequencer-crash column records exactly one
failover.
"""

import math
import os

import pytest

from repro.core.parameters import WorkloadParams
from repro.exp import SweepCell, SweepSpec, run_sweep
from repro.protocols.registry import (
    EXTENSION_PROTOCOLS, PROTOCOLS, get_protocol,
)
from repro.sim import CrashWindow, FaultPlan, RunConfig

from .conftest import emit

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)
#: every protocol with a sequencer (failover needs one)
ALL_PROTOCOLS = [p for p in list(PROTOCOLS) + list(EXTENSION_PROTOCOLS)
                 if not get_protocol(p).quorum_based]
WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "2"))

#: crash schedules of increasing severity; the last one includes the
#: sequencer (node 5 for N=4), so failover fires there and only there.
SCHEDULES = (
    ("none", ()),
    ("one client", (CrashWindow(2, 300.0, 450.0, semantics="amnesia"),)),
    ("two clients", (CrashWindow(2, 300.0, 450.0, semantics="amnesia"),
                     CrashWindow(3, 700.0, 850.0, semantics="amnesia"))),
    ("clients+seq", (CrashWindow(2, 300.0, 450.0, semantics="amnesia"),
                     CrashWindow(3, 700.0, 850.0, semantics="amnesia"),
                     CrashWindow(5, 1100.0, 1250.0, semantics="amnesia"))),
)


def build_spec() -> SweepSpec:
    cells = []
    for protocol in ALL_PROTOCOLS:
        for _label, crashes in SCHEDULES:
            faults = FaultPlan(seed=11, crashes=crashes) if crashes else None
            cells.append(SweepCell(
                protocol=protocol, params=PARAMS, kind="sim", M=2,
                config=RunConfig(ops=2000, warmup=300, seed=21,
                                 faults=faults,
                                 failover=faults is not None,
                                 monitor=True),
            ))
    return SweepSpec.explicit(cells)


def run_study():
    result = run_sweep(build_spec(), workers=WORKERS)
    assert result.failed == 0, [r for r in result.rows
                                if r["status"] == "failed"]
    table = {}
    it = iter(result.rows)
    for protocol in ALL_PROTOCOLS:
        for label, _crashes in SCHEDULES:
            table[(protocol, label)] = next(it)
    return table


def test_acc_vs_crash_rate(benchmark, results_dir):
    table = benchmark.pedantic(run_study, rounds=1, iterations=1)
    lines = [
        "acc under amnesia crashes (monitor on; last column: failover)",
        f"{'protocol':20} " + " ".join(
            f"{label:>12}" for label, _ in SCHEDULES
        ),
    ]
    for protocol in ALL_PROTOCOLS:
        cells = [table[(protocol, label)] for label, _ in SCHEDULES]
        lines.append(
            f"{protocol:20} " + " ".join(
                f"{c['acc_sim']:12.2f}" for c in cells
            )
        )
    lines.append("")
    lines.append("recovery share per operation (same grid)")
    for protocol in ALL_PROTOCOLS:
        cells = [table[(protocol, label)] for label, _ in SCHEDULES]
        lines.append(
            f"{protocol:20} " + " ".join(
                f"{c.get('acc_recovery_share', 0.0):12.3f}" for c in cells
            )
        )
    emit(results_dir, "recovery_acc_vs_crashes.txt", "\n".join(lines))

    for (protocol, label), cell in table.items():
        assert math.isfinite(cell["acc_sim"]), (protocol, label)
        assert cell["violations"] == 0, (protocol, label, cell)
        if label == "none":
            assert "acc_recovery_share" not in cell
            assert cell["incomplete_ops"] == 0
        else:
            assert cell["acc_recovery_share"] > 0.0, (protocol, label)
            assert cell["epoch_resets"] >= 2, (protocol, label)
            # lost submissions (node dead at issue time) are the only
            # legal incompleteness
            assert cell["incomplete_ops"] == cell["ops_lost"]
        expected_failovers = 1 if label == "clients+seq" else 0
        assert cell.get("failovers", 0) == expected_failovers, (
            protocol, label, cell
        )
