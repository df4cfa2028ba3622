"""One repeat of one benchmark workload, in a fresh process.

Run by ``bench.py``, one child at a time, with ``src`` on ``PYTHONPATH``::

    python benchmarks/perf/child.py --workload star-read --seed 1 \
        --scale 1.0 --mode plain|layers|setup [--no-expected]

``setup`` stops after set-up (import plus input construction); ``plain``
also runs the timed phase and the correctness gate; ``layers`` does the
same with the layer wrappers installed (``layers.py``) and writes the
per-layer results.  The last line of standard output is one JSON object.

Times are reported twice: in host seconds, and in reference-host seconds
(``*_ref_s``), scaled by the calibration loop timed right before and
right after each unit.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()  # before anything of repro is imported

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: the calibration loop's time on the reference host (a quiet 2-core
#: x86-64 VM running CPython 3.11)
CAL_REF_S = 0.04


def calibrate(n: int = 30_000) -> float:
    """Seconds for a fixed pure-Python loop with the simulator's memory
    habits: small-object churn, a dict of up to 2^14 keys and a heap.

    Other tenants of a shared host slow it about as much as they slow the
    simulator (their times correlate at about 0.85), while the loop itself
    never changes with the code under test.
    """
    store, heap, x = {}, [], 1
    start = perf_counter()
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        store[x & 0x3FFF] = [i, x]
        heapq.heappush(heap, (x, i))
        if len(heap) > 2_000:
            heapq.heappop(heap)
        store.get((x >> 7) & 0x3FFF)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "layers"))
    parser.add_argument("--no-expected", action="store_true",
                        help="skip the comparison with expected.json")
    args = parser.parse_args(argv)
    name = args.workload

    workloads.import_modules(name)
    import_s = perf_counter() - START
    out = {"workload": name, "mode": args.mode, "import_s": import_s}
    cals = []

    if args.mode == "layers":
        import layers

        scopes = layers.Scopes()
        with layers.LayerRun(scopes):
            plan = workloads.build(name, args.seed, args.scale, ROOT)
            cals.append(calibrate())
            scopes.reset()
            scopes.active = True
            start = perf_counter()
            units = plan.run()
            timed_s = perf_counter() - start
            scopes.active = False
            cals.append(calibrate())
        timed_ref_s = timed_s * 2 * CAL_REF_S / (cals[0] + cals[1])
        out["import_ref_s"] = import_s * CAL_REF_S / cals[0]
        out["layers"] = layers.layer_metrics(scopes, timed_s, plan.ops)
        layers.write_results(scopes, HERE / "results", name, out["layers"],
                             {"seed": args.seed, "scale": args.scale,
                              "timed_s": timed_s, "ops": plan.ops})
    else:
        plan = workloads.build(name, args.seed, args.scale, ROOT)
        out["setup_s"] = perf_counter() - START
        cals.append(calibrate())
        out["setup_ref_s"] = out["setup_s"] * CAL_REF_S / cals[0]
        out["import_ref_s"] = import_s * CAL_REF_S / cals[0]
        if args.mode == "setup":
            print(json.dumps(out))
            return 0
        units = plan.run(between=lambda: cals.append(calibrate()))
        timed_s = sum(seconds for _, seconds in units.values())
        # each unit sits between two calibrations: cals[i] and cals[i + 1]
        timed_ref_s = 0.0
        for i, unit in enumerate(units.values()):
            unit.append(unit[1] * 2 * CAL_REF_S / (cals[i] + cals[i + 1]))
            timed_ref_s += unit[2]

    expected = None
    if (not args.no_expected and args.scale == 1.0
            and (args.seed == workloads.DEFAULT_SEED or name == "catalog")):
        recorded = json.loads((HERE / "expected.json").read_text())
        expected = recorded.get(name, {})
    outputs, problems, failed = plan.check(expected)
    out.update(
        timed_s=timed_s,
        timed_ref_s=timed_ref_s,
        units=units,
        calibration_s=cals,
        # host seconds -> reference seconds for the rest of the process
        host_scale=CAL_REF_S / statistics.median(cals),
        ops=plan.ops,
        events=plan.events(),
        outputs=outputs,
        problems=problems,
        failed_ops=failed,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
