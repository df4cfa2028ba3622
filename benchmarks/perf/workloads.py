"""The benchmark's five workloads: inputs, timed phase and correctness gate.

Each workload is a host-side batch job: a fixed amount of simulated work,
with throughput measured at that size.  Simulated arrivals are the paper's
open Poisson stream with a mean gap of 10 hops.  ``seed`` feeds
``RunConfig.seed`` for the simulator workloads and ``base_seed`` for chaos;
the catalog's seeds are fixed by its scenarios.  ``scale`` multiplies every
operation count (for chaos the seed count, for the catalog the cell caps).

The timed phase is a list of *units* (a protocol run, a protocol's chaos
cells, a scenario), each timed on its own so that ``bench.py`` can take
per-unit medians across repeats.

This module is imported by a fresh child process before ``repro`` is, so
that importing ``repro`` can be timed: every ``repro`` import sits inside a
function.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: the seed at which outputs must equal ``expected.json``
DEFAULT_SEED = 1

#: the paper's Section 5.2 arrival stream: Poisson, mean gap of 10 hops
MEAN_GAP = 10.0

#: star-read's baseline point (ROADMAP): N=8, M=4, S=100, P=30, p=0.3, a=6
POINT = dict(N=8, p=0.3, a=6, S=100.0, P=30.0)
M = 4

#: operations per protocol run never drop below this under ``scale``
MIN_OPS = 1000

#: simulated acc must sit within this share of the analytic value, or
#: within ``ACC_SIGMAS`` batch-means standard errors of it, whichever is
#: wider.  Across 30 seeds at these run lengths the gap's standard
#: deviation is at most 1.1% (firefly, read disturbance) and its largest
#: value 2.3%; scaled-down runs widen through the standard error.
ACC_SHARE = 0.05
ACC_SIGMAS = 6.0
ACC_BATCHES = 10

#: scenarios with a committed baseline under ``scenarios/baselines``
BASELINED = ("smoke-cache", "smoke-faults", "smoke-quorum", "smoke-table7",
             "table6")
#: the long simulation studies run only their first cells; their smoke
#: children (baselined above) already cover each study's code path
CATALOG_CELL_CAPS = {"cache": 4, "faults": 4, "quorum": 4, "table7": 4}

#: name -> why it is in the benchmark (one line each; BENCHMARK.json too)
WHY = {
    "star-read": "baseline point: mostly local read hits, so per-op "
                 "bookkeeping dominates (node pump, metrics, arrival "
                 "pre-scheduling) and the channel does little",
    "star-write": "same star protocols under write disturbance: "
                  "invalidation and update fan-out make send, "
                  "record_message and on_message dominate",
    "quorum": "sc_abd two-phase quorum rounds at ~14 events/op, heavy "
              "on protocol handlers and fan-out",
    "chaos": "fault campaign over all 10 protocols: the only workload "
             "with reliable transport, recovery, detector, hedging, "
             "bounded caches and the monitor on",
    "catalog": "every committed scenario through the sweep engine: the "
               "only workload through core, exp and scenarios, many "
               "short cells",
}

WORKLOADS = tuple(WHY)


def scaled_ops(base: int, scale: float) -> int:
    return max(MIN_OPS, round(base * scale))


def rows_sha256(rows) -> str:
    """SHA-256 of sweep rows as canonical JSONL (``row_line`` per row)."""
    from repro.exp.runner import row_line

    text = "\n".join(row_line(r) for r in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def batch_se(costs: List[float], batches: int = ACC_BATCHES) -> float:
    """Batch-means standard error of the mean per-operation cost."""
    size = len(costs) // batches
    if size < 2:
        return math.inf
    means = [statistics.fmean(costs[i * size:(i + 1) * size])
             for i in range(batches)]
    return statistics.stdev(means) / math.sqrt(batches)


class Plan:
    """One workload's inputs, built during set-up.

    :meth:`run` is the timed phase.  :meth:`check` runs afterwards and
    returns ``(outputs, problems, failed_ops)``: the deterministic
    outputs a repeat must reproduce, one message per failed check, and
    the simulated operations that belong to a failing run.
    """

    #: simulated operations the timed phase issued
    ops = 0

    def units(self) -> List[Tuple[str, Callable[[], int]]]:
        """``(name, step)`` pairs; a step runs one unit, returns its ops."""
        raise NotImplementedError

    def run(self, between: Optional[Callable[[], None]] = None
            ) -> Dict[str, List[float]]:
        """Run every unit, calling ``between`` after each one; returns
        ``{unit: [ops, seconds]}``."""
        timings = {}
        for name, step in self.units():
            start = perf_counter()
            ops = step()
            timings[name] = [ops, perf_counter() - start]
            if between is not None:
                between()
        self.ops = sum(ops for ops, _ in timings.values())
        return timings

    def events(self) -> int:
        """Simulator events the timed phase executed."""
        raise NotImplementedError

    def check(self, expected: Optional[dict]
              ) -> Tuple[dict, List[str], int]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# simulator workloads: star-read, star-write, quorum
# ---------------------------------------------------------------------------


class SimPlan(Plan):
    """Protocol runs on the plain fabric, checked against analytic acc."""

    def __init__(self, protocols, deviation: str, ops: int, seed: int):
        from repro.core.parameters import Deviation, WorkloadParams
        from repro.sim.config import RunConfig
        from repro.sim.system import DSMSystem
        from repro.workloads.synthetic import SyntheticWorkload

        self.deviation = Deviation.READ if deviation == "read" else (
            Deviation.WRITE)
        disturb = {"sigma": 0.1} if deviation == "read" else {"xi": 0.1}
        self.params = WorkloadParams(**POINT, **disturb)
        self.config = RunConfig(ops=ops, seed=seed, mean_gap=MEAN_GAP)
        self.workload = SyntheticWorkload(self.params, self.deviation, M=M)
        self.systems = {
            name: DSMSystem(name, N=self.params.N, M=M, S=self.params.S,
                            P=self.params.P)
            for name in protocols
        }
        self.results: Dict[str, object] = {}

    def units(self):
        def step(name):
            self.results[name] = self.systems[name].run_workload(
                self.workload, self.config)
            return self.config.ops

        return [(name, lambda n=name: step(n)) for name in self.systems]

    def events(self) -> int:
        return sum(s.scheduler.executed for s in self.systems.values())

    def check(self, expected):
        from repro import api

        outputs, problems, failed = {}, [], 0
        for name, system in self.systems.items():
            result = self.results[name]
            out = {"acc": result.acc, "messages": result.messages,
                   "events": system.scheduler.executed,
                   "end_time": float(result.end_time)}
            outputs[name] = out
            bad = []
            if result.incomplete_ops:
                bad.append(f"{result.incomplete_ops} incomplete ops")
            try:
                system.check_coherence()
            except AssertionError as exc:
                bad.append(f"incoherent: {exc}")
            analytic = api.acc(name, self.params, self.deviation)
            costs = [r.cost for r in system.metrics.records(result.warmup)]
            tolerance = max(ACC_SHARE * abs(analytic),
                            ACC_SIGMAS * batch_se(costs))
            if not abs(result.acc - analytic) <= tolerance:
                bad.append(f"acc {result.acc:.4f} vs analytic "
                           f"{analytic:.4f} (tolerance {tolerance:.4f})")
            if expected is not None and expected.get(name) != out:
                bad.append(f"outputs {out} differ from expected.json "
                           f"{expected.get(name)}")
            if bad:
                failed += result.total_ops
                problems.extend(f"{name}: {b}" for b in bad)
        return outputs, problems, failed


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


class ChaosPlan(Plan):
    """A fault campaign over all protocols, with the monitor on.

    Each protocol's cells are one unit; a cell is a pure function of
    ``(base_seed, fuzz_seed, protocol)``, so the rows equal those of one
    campaign over every protocol.
    """

    def __init__(self, seed: int, scale: float):
        from repro.chaos import ChaosOptions

        self.options = ChaosOptions(
            seeds=max(1, round(4 * scale)), base_seed=seed,
            bounded_caches=True, slow_windows=True, M=3,
        )
        self.rows: List[dict] = []
        self.findings: List = []

    def units(self):
        from repro.chaos import run_chaos

        def step(protocol):
            report = run_chaos(replace(self.options, protocols=(protocol,)))
            self.rows.extend(report.rows)
            self.findings.extend(report.findings)
            return self.options.ops * len(report.rows)

        return [(p, lambda p=p: step(p))
                for p in self.options.resolved_protocols]

    def events(self) -> int:
        return sum(r.get("events_executed", 0) for r in self.rows)

    def check(self, expected):
        rows = self.rows
        outputs = {
            "rows_sha256": rows_sha256(rows),
            "incomplete_ops": sum(r.get("incomplete_ops", 0) for r in rows),
        }
        # a failed row is a finding too (repro.chaos.violates)
        problems = [f.describe().splitlines()[0] for f in self.findings]
        failed = self.options.ops * len(self.findings)
        if expected is not None and expected != outputs:
            problems.append(f"outputs {outputs} differ from expected.json "
                            f"{expected}")
            failed = self.ops
        return outputs, problems, failed


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class CatalogPlan(Plan):
    """Every committed scenario through ``repro.api.run_scenario``.

    The timed phase includes the comparison against the committed
    baselines: it is what ``repro scenarios compare`` makes a user wait
    for.
    """

    def __init__(self, root: Path, scale: float):
        from repro import api

        self.catalog = root / "scenarios"
        self.baselines = self.catalog / "baselines"
        self.names = api.list_scenarios(self.catalog)
        #: cells to run per scenario (``None``: all of them)
        self.caps: Dict[str, Optional[int]] = {}
        for name in self.names:
            cap = CATALOG_CELL_CAPS.get(name)
            if scale != 1.0:
                if cap is None:
                    cap = len(api.load_scenario(
                        name, catalog=self.catalog).to_spec().cells)
                cap = max(1, math.ceil(cap * scale))
            self.caps[name] = cap
        self.results: Dict[str, object] = {}
        self.diffs: Dict[str, object] = {}

    def units(self):
        from repro import api
        from repro.scenarios.runner import compare_to_baseline

        def step(name):
            result = api.run_scenario(name, catalog=self.catalog,
                                      cells=self.caps[name], workers=1,
                                      cache=None)
            self.results[name] = result
            if name in BASELINED:
                self.diffs[name] = compare_to_baseline(
                    result, self.baselines / f"{name}.jsonl")
            return sum(r.get("ops", 0) for r in result.rows)

        return [(name, lambda n=name: step(n)) for name in self.names]

    def events(self) -> int:
        return sum(r.get("events_executed", 0)
                   for result in self.results.values() for r in result.rows)

    def check(self, expected):
        outputs, problems, failed = {}, [], 0
        missing = sorted(set(BASELINED) - set(self.names))
        if missing:
            problems.append(f"baselined scenarios missing: {missing}")
        for name, result in self.results.items():
            ops = sum(r.get("ops", 0) for r in result.rows)
            outputs[name] = rows_sha256(result.rows)
            bad = [f"{result.failed} failed row(s)"] if result.failed else []
            diff = self.diffs.get(name)
            if diff is not None:
                # a scaled-down run covers a prefix of the baseline only
                if diff.missing_in_baseline or (
                        self.caps[name] is None and diff.missing_in_run):
                    bad.append("baseline " + diff.summary())
            elif expected is not None and expected.get(name) != outputs[name]:
                bad.append("rows differ from expected.json")
            if bad:
                failed += ops
                problems.extend(f"{name}: {b}" for b in bad)
        return outputs, problems, failed


# ---------------------------------------------------------------------------
# entry points used by child.py
# ---------------------------------------------------------------------------


def import_modules(name: str) -> None:
    """Import ``repro`` (which brings ``repro.api``), plus ``repro.chaos``
    where the workload uses it: the part of set-up timed as
    ``setup.import_s``."""
    import repro  # noqa: F401

    if name == "chaos":
        import repro.chaos  # noqa: F401


def build(name: str, seed: int, scale: float, root: Path) -> Plan:
    """Construct one workload's inputs (set-up after ``import repro``)."""
    if name == "star-read":
        return SimPlan(("write_through", "berkeley", "firefly"), "read",
                       scaled_ops(20_000, scale), seed)
    if name == "star-write":
        return SimPlan(("write_through", "berkeley", "firefly"), "write",
                       scaled_ops(8_000, scale), seed)
    if name == "quorum":
        return SimPlan(("sc_abd",), "read", scaled_ops(10_000, scale), seed)
    if name == "chaos":
        return ChaosPlan(seed, scale)
    if name == "catalog":
        return CatalogPlan(root, scale)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
