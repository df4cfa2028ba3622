"""The chaos campaign driver: fuzz, detect, shrink, archive.

:func:`run_chaos` expands a :class:`~repro.chaos.generate.ChaosOptions`
into one :class:`~repro.exp.spec.SweepCell` per ``(protocol, fuzz_seed)``
coordinate, evaluates them through the parallel sweep engine (cache
disabled — a fuzz run must actually run), classifies each row with
:func:`violates`, and shrinks every violating schedule to a minimal
reproducing cell (:mod:`repro.chaos.shrink`).

What counts as a violation
--------------------------

* a ``failed`` row — the simulator raised (deadlock guard, coherence
  assertion, or any crash), or
* a monitor-reported ``divergence`` or ``sequential_consistency``
  violation.

``delivery`` violations alone are deliberately *not* findings: abandoning
a send after the retry budget toward a live destination is a reliability
degradation the row already reports, not a consistency bug — the fuzzer
hunts for the latter.

Every finding serializes to a self-contained repro JSON (the shrunk
cell's payload plus provenance) that ``repro chaos --replay`` — or
:func:`replay_repro` — re-runs bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from ..exp.runner import ProgressFn, run_cell, run_sweep
from ..exp.spec import SweepCell, SweepSpec
from ..obs.export import write_chrome_trace
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceConfig
from .generate import ChaosOptions, chaos_cells
from .shrink import ShrinkResult, fault_window_count, shrink

__all__ = ["VIOLATION_KINDS", "ChaosFinding", "ChaosReport", "load_repro",
           "replay_repro", "run_chaos", "violates", "write_repros"]

#: monitor violation kinds that make a row a finding
VIOLATION_KINDS = frozenset({"divergence", "sequential_consistency"})


def violates(row: dict) -> bool:
    """Whether a sweep row constitutes a consistency finding."""
    if row.get("status") != "ok":
        return True
    return bool(VIOLATION_KINDS.intersection(row.get("violation_kinds",
                                                     ())))


@dataclass(frozen=True)
class ChaosFinding:
    """One violating schedule, before and after shrinking."""

    protocol: str
    fuzz_seed: int
    base_seed: int
    #: the schedule as generated
    original: SweepCell
    #: the minimal still-violating schedule
    shrunk: SweepCell
    #: the violating row of :attr:`shrunk`
    row: dict
    #: simulator runs the shrink spent
    shrink_runs: int

    @property
    def fault_windows(self) -> int:
        """Crash windows plus link faults left after shrinking."""
        return fault_window_count(self.shrunk)

    def to_repro(self) -> dict:
        """A self-contained, replayable description of the finding."""
        return {
            "protocol": self.protocol,
            "fuzz_seed": self.fuzz_seed,
            "base_seed": self.base_seed,
            "cell": self.shrunk.to_payload(),
            "original_cell": self.original.to_payload(),
            "row": self.row,
            "shrink_runs": self.shrink_runs,
            "fault_windows": self.fault_windows,
        }

    def repro_json(self) -> str:
        """Canonical JSON text of :meth:`to_repro` (byte-stable)."""
        return json.dumps(self.to_repro(), sort_keys=True, indent=2) + "\n"

    def describe(self) -> str:
        """One-paragraph human summary (used by the CLI)."""
        config = self.shrunk.config
        lines = [
            f"{self.protocol} fuzz_seed={self.fuzz_seed} "
            f"(base_seed={self.base_seed}): "
            f"{self.fault_windows} fault window(s) after "
            f"{self.shrink_runs} shrink run(s)",
            "  faults:     " + (config.faults.describe()
                                if config.faults is not None else "none"),
            "  partitions: " + (config.partitions.describe()
                                if config.partitions is not None
                                else "none"),
        ]
        if self.row.get("status") != "ok":
            lines.append(f"  outcome:    failed "
                         f"({self.row.get('error', 'unknown error')})")
        else:
            kinds = ", ".join(self.row.get("violation_kinds", ()))
            lines.append(f"  outcome:    {self.row.get('violations', 0)} "
                         f"violation(s) [{kinds}]")
        return "\n".join(lines)


@dataclass(frozen=True)
class ChaosReport:
    """The outcome of one :func:`run_chaos` campaign."""

    options: ChaosOptions
    #: every ``(protocol, fuzz_seed)`` fuzzed, in order
    coordinates: Tuple[Tuple[str, int], ...]
    #: one sweep row per coordinate, same order
    rows: Tuple[dict, ...]
    #: shrunk findings (empty means the campaign passed)
    findings: Tuple[ChaosFinding, ...]

    @property
    def cells(self) -> int:
        return len(self.rows)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        protos = len(self.options.resolved_protocols)
        verdict = ("no violations" if self.ok
                   else f"{len(self.findings)} finding(s)")
        return (f"chaos: {self.cells} cells "
                f"({protos} protocols x {self.options.seeds} seeds, "
                f"base_seed={self.options.base_seed}) -> {verdict}")


def write_repros(report: ChaosReport,
                 repro_dir: Union[str, Path]) -> List[Path]:
    """Write one repro JSON per finding; returns the paths written."""
    repro_dir = Path(repro_dir)
    repro_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for finding in report.findings:
        path = repro_dir / (f"chaos-{finding.protocol}"
                            f"-seed{finding.fuzz_seed}.json")
        path.write_text(finding.repro_json(), encoding="utf-8")
        paths.append(path)
    return paths


def load_repro(path: Union[str, Path]) -> SweepCell:
    """Rebuild the shrunk cell from a repro JSON file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return SweepCell.from_payload(data["cell"])


def replay_repro(
    path: Union[str, Path],
    *,
    trace_out: Union[str, Path, None] = None,
    trace_sample: int = TraceConfig.sample_every,
) -> dict:
    """Re-run a repro file's shrunk cell; returns the fresh row.

    Args:
        trace_out: when given, the replay runs with structured tracing
            enabled and exports a Perfetto-loadable Chrome trace to this
            path.  The trace is written even when the replay crashes —
            a crashing repro is exactly when you want the trace — and is
            byte-identical across replays of the same file.
        trace_sample: record every k-th operation span (``TraceConfig
            .sample_every``) for the exported trace.
    """
    cell = load_repro(path)
    if trace_out is None:
        return run_cell(cell)
    cell = cell.with_(
        config=cell.config.with_(
            tracing=TraceConfig(sample_every=trace_sample)
        ),
    )
    captured: List = []
    try:
        return run_cell(cell, on_system=captured.append)
    finally:
        if captured and captured[0].tracer is not None:
            write_chrome_trace(
                captured[0].tracer, trace_out,
                label="chaos replay %s" % Path(path).name,
            )


def run_chaos(
    options: ChaosOptions,
    *,
    out_path: Union[str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    shrink_progress: Optional[Callable[[ChaosFinding], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosReport:
    """Run one fuzzing campaign and shrink every finding.

    The fuzzing sweep honours ``options.workers``; with the same options
    the report — including every shrunk schedule — is bit-identical
    regardless of worker count, because rows are pure functions of their
    cells and shrinking always runs in-process in coordinate order.

    When ``registry`` is given, the campaign publishes ``chaos.cells``,
    ``chaos.findings`` and ``chaos.shrink_runs`` counters on top of the
    underlying sweep's ``sweep.*`` metrics.
    """
    coords = chaos_cells(options)
    spec = SweepSpec.explicit(cell for _, _, cell in coords)
    result = run_sweep(spec, workers=options.workers, cache=None,
                       out_path=out_path, progress=progress,
                       registry=registry)
    findings: List[ChaosFinding] = []
    for (protocol, fuzz_seed, cell), row in zip(coords, result.rows):
        if not violates(row):
            continue
        reduced: ShrinkResult = shrink(cell, row, violates,
                                       budget=options.shrink_budget)
        finding = ChaosFinding(
            protocol=protocol,
            fuzz_seed=fuzz_seed,
            base_seed=options.base_seed,
            original=cell,
            shrunk=reduced.cell,
            row=reduced.row,
            shrink_runs=reduced.runs,
        )
        findings.append(finding)
        if shrink_progress is not None:
            shrink_progress(finding)
    if registry is not None:
        registry.counter("chaos.cells",
                         "schedules fuzzed").inc(len(coords))
        registry.counter("chaos.findings",
                         "violating schedules").inc(len(findings))
        registry.counter(
            "chaos.shrink_runs", "simulator runs spent shrinking"
        ).inc(sum(f.shrink_runs for f in findings))
    return ChaosReport(
        options=options,
        coordinates=tuple((p, s) for p, s, _ in coords),
        rows=tuple(result.rows),
        findings=tuple(findings),
    )
