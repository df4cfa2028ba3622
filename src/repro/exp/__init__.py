"""Parallel sweep/experiment engine (``repro.exp``).

Every headline artifact of the paper — Table 6, Table 7, the Figure 5/6
surfaces — is a parameter *grid* of independent cells.  This subsystem
evaluates such grids as first-class objects:

* :class:`~repro.exp.spec.SweepSpec` — a declarative cell collection
  (cartesian product with feasibility filtering, or an explicit list) of
  ``analytic`` / ``sim`` / ``compare`` cells;
* :func:`~repro.exp.runner.simulate_cell` — the one place a cell becomes
  a simulated run (the sweep engine, ``repro.api.simulate``,
  ``repro.validation.compare_cell`` and the CLI all call it);
* :class:`~repro.exp.runner.SweepRunner` — fans independent cells out
  over a ``multiprocessing`` pool; per-cell derived seeds make a parallel
  run bit-identical to a serial one;
* :class:`~repro.exp.cache.ResultCache` — a content-addressed on-disk
  cache keyed on cell config + package version, so re-running a sweep
  only computes new cells;
* streaming JSONL output plus progress reporting.

Quickstart::

    from repro import RunConfig, WorkloadParams
    from repro.exp import SweepSpec, run_sweep

    spec = SweepSpec.cartesian(
        protocols=["write_once", "write_through_v"],
        base=WorkloadParams(N=3, p=0.0, a=2, S=100, P=30),
        p_values=[0.0, 0.2, 0.4, 0.6],
        disturb_values=[0.0, 0.1, 0.2],
        config=RunConfig(ops=2000, warmup=500),
    )
    result = run_sweep(spec, workers=4, cache=".sweep-cache",
                       out_path="table7.jsonl")
    print(result.max_abs_discrepancy_pct())
"""

from .cache import CACHE_SCHEMA, CacheStats, ResultCache
from .runner import (SweepResult, SweepRunner, row_line, run_cell, run_sweep,
                     simulate_cell)
from .spec import CELL_KINDS, SweepCell, SweepSpec, derive_cell_seed

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "SweepResult",
    "SweepRunner",
    "row_line",
    "run_cell",
    "run_sweep",
    "simulate_cell",
    "CELL_KINDS",
    "SweepCell",
    "SweepSpec",
    "derive_cell_seed",
]
