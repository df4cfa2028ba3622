"""Observability overhead benchmark: what does tracing cost?

Runs the bench_engine workload (berkeley, N=8, M=4) three times —
tracing disabled, tracing at ``sample_every=1`` (every span) and at
``sample_every=100`` — and reports wall-clock per mode, the overhead of
each traced mode relative to disabled, and a *normalized* runtime that
divides by a pure-Python calibration loop so numbers are comparable
across machines of different speeds.

Runnable both as a script (CI's perf-smoke job) and under pytest::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --out benchmarks/results/obs_overhead.jsonl \
        --baseline benchmarks/baselines/obs_overhead.json --check

``--check`` compares the tracing-disabled normalized runtime against the
committed baseline and fails (exit 1) on a regression beyond the
baseline's tolerance — the guard that keeps the zero-overhead-when-
disabled promise honest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from repro.core import WorkloadParams
from repro.obs import TraceConfig
from repro.sim import DSMSystem, RunConfig
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=8, p=0.3, a=6, sigma=0.1, S=100.0, P=30.0)

#: default regression tolerance when the baseline file does not set one
DEFAULT_TOLERANCE = 0.25


def calibrate(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python busy loop (machine-speed probe)."""
    best = float("inf")
    for _ in range(3):
        acc = 0
        start = perf_counter()
        for i in range(iterations):
            acc += i & 7
        best = min(best, perf_counter() - start)
    return best


def run_mode(tracing, ops: int, repeats: int) -> dict:
    """Best-of-``repeats`` wall-clock for one tracing mode."""
    workload = read_disturbance_workload(PARAMS, M=4)
    config = RunConfig(ops=ops, warmup=ops // 6, seed=1, mean_gap=10.0,
                       tracing=tracing)
    best = float("inf")
    events = spans = 0
    for _ in range(repeats):
        system = DSMSystem("berkeley", N=PARAMS.N, M=4, S=PARAMS.S,
                           P=PARAMS.P, config=config)
        start = perf_counter()
        result = system.run_workload(workload)
        best = min(best, perf_counter() - start)
        events = system.scheduler.executed
        if result.tracer is not None:
            spans = len(result.tracer.spans)
    return {"seconds": best, "events_executed": events, "spans": spans}


def run_benchmark(ops: int, repeats: int) -> list:
    """One row per mode, overheads relative to the disabled mode."""
    unit = calibrate()
    modes = [
        ("disabled", None),
        ("sample_every=1", TraceConfig(sample_every=1)),
        ("sample_every=100", TraceConfig(sample_every=100)),
    ]
    rows = []
    base_seconds = None
    for name, tracing in modes:
        row = {"mode": name, "ops": ops, "repeats": repeats,
               "calibration_s": unit}
        row.update(run_mode(tracing, ops, repeats))
        row["normalized"] = row["seconds"] / unit
        if base_seconds is None:
            base_seconds = row["seconds"]
            row["overhead_pct"] = 0.0
        else:
            row["overhead_pct"] = (
                100.0 * (row["seconds"] - base_seconds) / base_seconds
            )
        rows.append(row)
    return rows


def check_baseline(rows: list, baseline_path: Path) -> int:
    """Compare the disabled-mode normalized runtime to the baseline."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    expected_ops = baseline.get("ops")
    if expected_ops is not None and rows[0]["ops"] != expected_ops:
        print(f"error: baseline was recorded at ops={expected_ops}, "
              f"this run used ops={rows[0]['ops']} — normalized "
              f"runtimes are only comparable at the same ops",
              file=sys.stderr)
        return 2
    limit = baseline["disabled_normalized"]
    tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    measured = rows[0]["normalized"]
    ceiling = limit * (1.0 + tolerance)
    verdict = "ok" if measured <= ceiling else "REGRESSION"
    print(f"perf check: disabled normalized {measured:.3f} vs baseline "
          f"{limit:.3f} (+{100 * tolerance:.0f}% ceiling {ceiling:.3f}) "
          f"-> {verdict}")
    return 0 if measured <= ceiling else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=3000,
                        help="operations per run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per mode (best-of)")
    parser.add_argument("--out", default=None,
                        help="JSONL output path for the result rows")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON for --check")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs --baseline")
    args = parser.parse_args(argv)

    rows = run_benchmark(args.ops, args.repeats)
    for row in rows:
        print(f"{row['mode']:18s} {row['seconds'] * 1e3:9.2f} ms "
              f"(normalized {row['normalized']:.3f}, "
              f"overhead {row['overhead_pct']:+.1f}%, "
              f"{row['spans']} spans)")
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"results -> {out}")
    if args.check:
        if args.baseline is None:
            print("error: --check requires --baseline", file=sys.stderr)
            return 2
        return check_baseline(rows, Path(args.baseline))
    return 0


def test_tracing_overhead_bounded():
    """Full tracing on this workload stays under a generous ceiling."""
    rows = run_benchmark(ops=800, repeats=3)
    by_mode = {row["mode"]: row for row in rows}
    # sampled tracing must not cost more than full tracing (plus noise)
    assert (by_mode["sample_every=100"]["seconds"]
            <= by_mode["sample_every=1"]["seconds"] * 1.25)
    # full tracing is allowed real cost, but not a blow-up
    assert by_mode["sample_every=1"]["overhead_pct"] < 150.0


if __name__ == "__main__":
    sys.exit(main())
