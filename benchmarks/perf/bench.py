"""The repo benchmark: end-to-end throughput, set-up, memory and a layer run.

Runs each (workload, repeat) in a fresh child process (``child.py``), one
child at a time — no worker pools, no extra threads — and prints every
metric by name with its unit, then one JSON summary as the last line::

    PYTHONPATH=src python benchmarks/perf/bench.py --seed 1 --repeats 3 \
        [--workloads a,b] [--scale 1.0] [--layers] [--out results.json]

``--seconds T`` replaces ``--repeats``: repeats run until ``T`` seconds
are spent.  ``--layers`` (or ``--trace 1``) reports the per-layer metrics
of a layer run instead of the end-to-end ones; its plain and wrapped
repeats alternate.  ``--write-expected`` records the default-seed outputs
in ``expected.json``.  The benchmark finds ``src/`` itself, so
``PYTHONPATH`` is optional.

Times are in reference-host seconds: each child scales its host times by
a calibration loop timed right before and after every unit (``child.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (stdlib-only at import time)
import workloads  # noqa: E402

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics of the layer run: name -> unit
PER_LAYER = {
    "engine.self_share": "share",
    "engine.events_per_op": "1/op",
    "engine.events_per_s": "1/s",
    "engine.schedule_calls": "count",
    "engine.timer_cancels": "count",
    "engine.pending_peak": "count",
    "system.self_share": "share",
    "channel.self_share": "share",
    "channel.sends": "count",
    "channel.dropped": "count",
    "channel.duplicated": "count",
    "reliable.self_share": "share",
    "reliable.retransmissions": "count",
    "reliable.acks": "count",
    "reliable.goodput": "ratio",
    "node.self_share": "share",
    "protocol.self_share": "share",
    "protocol.on_request_calls": "count",
    "protocol.on_message_calls": "count",
    "protocol.messages_per_op": "1/op",
    "metrics.self_share": "share",
    "metrics.record_message_calls": "count",
    "cache.self_share": "share",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.writebacks": "count",
    "monitor.hooks_self_share": "share",
    "monitor.check_self_share": "share",
    "monitor.sc_inconclusive": "count",
    "recovery.self_share": "share",
    "recovery.resync_objects": "count",
    "detector.heartbeats": "count",
    "workload.self_share": "share",
    "core.self_share": "share",
    "core.solve_calls": "count",
    "exp.self_share": "share",
    "exp.cells": "count",
    "scenarios.self_share": "share",
    "chaos.generate_self_share": "share",
    "setup.import_s": "s",
    "unattributed_share": "share",
    "layer_run.overhead": "ratio",
}

#: set-up is sampled at least this many times per workload
SETUP_SAMPLES = 5

#: with ``--seconds``, every child must end this long after start-up
DEADLINE_S = 170.0

#: without a deadline, one child may take this long
CHILD_TIMEOUT_S = 900.0

class EnvironmentProblem(Exception):
    """The checkout cannot run the program (no ``src/repro``)."""


def child_env() -> Dict[str, str]:
    """Environment for children: this checkout's ``src`` first, one
    thread per numeric library, a fixed hash seed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def check_checkout(env: Dict[str, str]) -> None:
    """Fail unless ``repro`` imports from this checkout's ``src``.

    The import also compiles the bytecode, so no timed child pays it.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise EnvironmentProblem(f"no src/repro package under {ROOT}")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.api, repro.chaos; print(repro.__file__)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise EnvironmentProblem("cannot import repro:\n" + proc.stderr)
    found = Path(proc.stdout.strip().splitlines()[-1]).resolve()
    if ROOT / "src" not in found.parents:
        raise EnvironmentProblem(f"repro imported from {found}, not {ROOT}")


def run_child(name: str, mode: str, args, env, deadline: Optional[float]
              ) -> dict:
    """One child process; returns its JSON result plus ``wall_s``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--scale", repr(args.scale),
           "--mode", mode]
    if args.write_expected:
        cmd.append("--no-expected")
    timeout = (CHILD_TIMEOUT_S if deadline is None
               else max(1.0, deadline - perf_counter()))
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "crashed": f"timed out after {timeout:.0f} s"}
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"mode": mode, "wall_s": wall,
                "crashed": f"exit {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def run_workload(name: str, args, env, deadline) -> List[dict]:
    """Every child of one workload, in order."""
    modes = ["plain", "layers"] if args.layers else ["plain"]
    children: List[dict] = []

    def spawn(mode: str) -> dict:
        children.append(run_child(name, mode, args, env, deadline))
        return children[-1]

    start = perf_counter()
    last = 0.0
    while True:
        done = len(children)
        if args.seconds is not None:
            if (done >= len(modes)
                    and perf_counter() - start + last > args.seconds):
                break
        elif done >= args.repeats * len(modes):
            break
        if deadline is not None and perf_counter() + last > deadline:
            break
        before = perf_counter()
        if "crashed" in spawn(modes[done % len(modes)]):
            break
        last = perf_counter() - before
    if not args.layers and not args.write_expected:
        while (sum("setup_s" in c for c in children) < SETUP_SAMPLES
               and (deadline is None or perf_counter() + 5 < deadline)):
            if "crashed" in spawn("setup"):
                break
    return children


def wall_ref_s(c: dict) -> float:
    """A child's wall time without its calibrations, in reference seconds."""
    return (c["wall_s"] - sum(c["calibration_s"])) * c["host_scale"]


def spread(values: List[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def summarize(name: str, children: List[dict], layers: bool) -> dict:
    """Metrics (median/min/max/n), correctness and op counts."""
    timed = [c for c in children if "timed_s" in c]
    plain = [c for c in timed if c["mode"] == "plain"]
    problems: List[str] = []
    for c in children:
        if "crashed" in c:
            problems.append(f"{c['mode']} child crashed: {c['crashed']}")
        problems.extend(c.get("problems", ()))
    if len({json.dumps(c["outputs"], sort_keys=True) for c in timed}) > 1:
        problems.append("repeats disagree on simulated outputs")
    ops = max((c["ops"] for c in timed), default=1)
    attempted = sum(c["ops"] for c in timed) + ops * sum(
        "crashed" in c and c["mode"] != "setup" for c in children)
    failed = attempted - sum(c["ops"] - c["failed_ops"] for c in timed)

    series: Dict[str, List[float]] = {}
    if layers:
        wrapped = [c for c in timed if c["mode"] == "layers"]
        for metric in PER_LAYER:
            values = [c["layers"][metric] for c in wrapped
                      if metric in c["layers"]]
            if values:
                series[metric] = values
        counts = {m for m, unit in PER_LAYER.items() if unit == "count"}
        if any(len(set(series.get(m, ()))) > 1 for m in counts):
            problems.append("layer-run counts differ between repeats")
        if plain and wrapped:
            series["engine.events_per_s"] = [
                c["events"] / c["timed_ref_s"] for c in plain]
            series["layer_run.overhead"] = [
                statistics.median(c["timed_ref_s"] for c in wrapped)
                / statistics.median(c["timed_ref_s"] for c in plain)]
        series["setup.import_s"] = [c["import_ref_s"] for c in children
                                    if "import_ref_s" in c]
    else:
        series["ops_per_s"] = [c["ops"] / c["timed_ref_s"] for c in plain]
        series["wall_s"] = [wall_ref_s(c) for c in plain]
        series["setup_s"] = [c["setup_ref_s"] for c in children
                             if "setup_ref_s" in c]
        series["peak_rss_mb"] = [c["rss_mb"] for c in plain]
    units = PER_LAYER if layers else END_TO_END
    metrics = {m: dict(spread(series[m]), unit=units[m])
               for m in units if series.get(m)}
    if plain and not layers:
        # A burst of host contention slows one unit of one repeat; the
        # per-unit median drops it where a per-repeat median would not.
        unit_s = sum(statistics.median(c["units"][u][2] for c in plain)
                     for u in plain[0]["units"])
        metrics["ops_per_s"]["median"] = plain[0]["ops"] / unit_s
        metrics["wall_s"]["median"] = unit_s + statistics.median(
            wall_ref_s(c) - c["timed_ref_s"] for c in plain)
    missing = [m for m in units if m not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    cals = [cal for c in children for cal in c.get("calibration_s", ())]
    return {
        "workload": name,
        "correct": not problems,
        "problems": list(dict.fromkeys(problems)),  # repeats say it once
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "repeats": len(plain),
        "calibration_s": statistics.median(cals) if cals else float("nan"),
        "metrics": metrics,
        "outputs": timed[0]["outputs"] if timed else None,
        "children": children,
    }


def print_table(summary: dict, args) -> None:
    print(f"\n{summary['workload']}: {summary['repeats']} plain repeat(s), "
          f"seed={args.seed}, scale={args.scale:g} -- "
          f"{workloads.WHY[summary['workload']]}")
    print(f"  times scaled to the reference host: calibration loop "
          f"{summary['calibration_s']:.4g} s here, {child.CAL_REF_S:g} s "
          f"there")
    print(f"  {'metric':30s} {'unit':6s} {'median':>14s} {'min':>14s} "
          f"{'max':>14s} {'n':>3s}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:30s} {m['unit']:6s} {m['median']:14.6g} "
              f"{m['min']:14.6g} {m['max']:14.6g} {m['n']:3d}")
    verdict = "ok" if summary["correct"] else "FAILED"
    print(f"  correctness: {verdict}; {summary['failed']} of "
          f"{summary['attempted']} operations failed "
          f"(failed_share {summary['failed_share']:.6g})")
    for problem in summary["problems"]:
        print(f"    - {problem}")


def write_expected(summaries: List[dict]) -> None:
    path = HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for s in summaries:
        recorded[s["workload"]] = s["outputs"]
    recorded["seed"] = workloads.DEFAULT_SEED
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--workloads", "--workload", default="all",
                        help="comma-separated workload names, or 'all' "
                             f"({', '.join(workloads.WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0)
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--repeats", type=int, default=3)
    runs.add_argument("--seconds", type=float)
    parser.add_argument("--layers", action="store_true",
                        help="report the layer run's per-layer metrics")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 is --layers")
    parser.add_argument("--out", type=Path,
                        help="also write every summary as JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the outputs in expected.json")
    args = parser.parse_args(argv)
    args.layers = args.layers or args.trace == 1
    names = (list(workloads.WORKLOADS) if args.workloads == "all"
             else args.workloads.split(","))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    args.names = names
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_expected:
        if args.seed != workloads.DEFAULT_SEED or args.scale != 1.0:
            parser.error("--write-expected records the default seed at "
                         "scale 1")
        args.repeats, args.seconds, args.layers = 1, None, False
    return args


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    env = child_env()
    try:
        check_checkout(env)
    except EnvironmentProblem as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    deadline = None if args.seconds is None else started + DEADLINE_S
    summaries = []
    for name in args.names:
        summary = summarize(name, run_workload(name, args, env, deadline),
                            args.layers)
        summaries.append(summary)
        print_table(summary, args)
    if args.write_expected:
        write_expected(summaries)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "scale": args.scale, "layers": args.layers,
             "workloads": summaries}, indent=1) + "\n")
    single = len(summaries) == 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (metric if single else f"{s['workload']}/{metric}"):
                {"value": m["median"], "unit": m["unit"]}
            for s in summaries for metric, m in s["metrics"].items()
        },
    }))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
