"""The parallel sweep engine, and the one synthetic-workload run path.

:func:`simulate_cell` is the only place a :class:`~repro.exp.spec.SweepCell`
becomes a simulated run: every caller that simulates a protocol under the
paper's synthetic workload (this engine, :func:`repro.api.simulate`,
:func:`repro.validation.compare_cell` and the CLI) goes through it.
:func:`run_cell` evaluates one cell into a plain-JSON *row*;
:class:`SweepRunner` fans the cells of a
:class:`~repro.exp.spec.SweepSpec` out over a ``multiprocessing`` worker
pool, consults the :class:`~repro.exp.cache.ResultCache` first, streams
finished rows to a JSONL file and reports progress.

Design rules that make the engine trustworthy:

* **Rows are pure functions of their cell.**  No wall-clock time, worker
  id or host state enters a row, and every cell carries its own derived
  seed — so ``workers=8`` produces byte-identical rows to ``workers=1``
  (modulo completion order), and a cached row is indistinguishable from
  a recomputed one.  Wall-clock timings ride back from workers under the
  private ``"_wall_clock_s"`` key, which the runner strips into
  :attr:`SweepResult.timings` before a row is cached, written or shown —
  the deterministic ``events_executed`` column is the in-row cost proxy.
* **Workers rebuild cells from plain-JSON payloads** (fresh
  :class:`~repro.sim.faults.FaultPlan` RNG state included), so fork vs
  spawn start methods behave identically.
* **A crashing worker cannot sink the sweep.**  When the pool breaks,
  every unfinished cell is retried once in its own single-worker pool;
  a cell that kills its pool twice is recorded as a failed row and the
  sweep completes.  With ``workers=1`` cells run in-process (fast,
  exactly reproducible) and a cell that raises is likewise recorded as
  failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..core.acc import analytical_acc
from ..obs.registry import MetricsRegistry
from ..sim.system import DSMSystem, SimulationResult
from ..workloads.synthetic import SyntheticWorkload
from .cache import CacheStats, ResultCache, as_cache
from .spec import SweepCell, SweepSpec

__all__ = ["SweepResult", "SweepRunner", "row_line", "run_cell", "run_sweep",
           "simulate_cell"]

#: progress callback signature: (done, total, row)
ProgressFn = Callable[[int, int, dict], None]


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: ``None`` replaces NaN/inf (strict-JSON friendly)."""
    value = float(value)
    return value if math.isfinite(value) else None


def simulate_cell(
    cell: SweepCell,
    on_system: Optional[Callable] = None,
) -> Tuple[DSMSystem, SimulationResult]:
    """Build, run and check the simulated part of one cell.

    Builds the :class:`DSMSystem` from ``cell.config`` and drives it with
    the cell's :class:`SyntheticWorkload`.  A healthy run (no delivery
    failure) must end coherent: :meth:`DSMSystem.check_coherence` raises
    otherwise.

    Args:
        on_system: optional in-process hook called with the
            :class:`DSMSystem` after the simulation ran (even when the
            run raised) — the chaos replayer uses it to export the
            tracer of a repro run.
    """
    system = DSMSystem(cell.protocol, N=cell.params.N, M=cell.M,
                       S=cell.params.S, P=cell.params.P, config=cell.config)
    workload = SyntheticWorkload(cell.params, cell.deviation, M=cell.M)
    try:
        result = system.run_workload(workload)
    finally:
        if on_system is not None:
            on_system(system)
    if system.metrics.reliability.delivery_failures == 0:
        # an abandoned message may legitimately have been an
        # invalidation, so only healthy runs must end coherent.
        system.check_coherence()
    return system, result


def run_cell(cell: SweepCell, on_system: Optional[Callable] = None) -> dict:
    """Evaluate one cell into its deterministic result row.

    The row contains only values derived from the cell's content (no
    timestamps, no host identity), so it is cacheable and identical
    however and wherever it is computed.

    Args:
        on_system: passed to :func:`simulate_cell`.  Never crosses a
            process boundary, so worker-pool execution ignores it.
    """
    config = cell.config
    row = {
        "id": cell.cell_id(),
        "kind": cell.kind,
        "protocol": cell.protocol,
        "deviation": cell.deviation.value,
        "p": cell.params.p,
        "disturb": cell.disturb,
        "params": cell.params.to_dict(),
        "status": "ok",
    }
    if cell.analyzes:
        row["method"] = cell.method
        row["acc_analytic"] = _finite(
            analytical_acc(cell.protocol, cell.params, cell.deviation,
                           cell.method)
        )
    if cell.simulates:
        row.update(
            M=cell.M,
            ops=config.ops,
            warmup=config.resolved_warmup,
            seed=config.seed,
            mean_gap=config.mean_gap,
            faults=(None if config.faults is None
                    else config.faults.to_dict()),
        )
        if config.partitions is not None:
            row["partitions"] = config.partitions.to_dict()
        if config.reconfig is not None:
            row["reconfig"] = config.reconfig.to_dict()
        if config.hedge is not None:
            row["hedge"] = config.hedge.to_dict()
        if config.cache is not None:
            row["cache"] = config.cache.to_dict()
        if config.quorum_weights is not None:
            row["quorum_weights"] = [
                [int(n), float(w)] for n, w in config.quorum_weights
            ]
        system, result = simulate_cell(cell, on_system)
        stats = system.metrics.reliability
        row.update(
            acc_sim=_finite(result.acc),
            messages=result.messages,
            measured=result.measured,
            incomplete_ops=result.incomplete_ops,
            end_time=result.end_time,
            events_executed=system.scheduler.executed,
            coherent=stats.delivery_failures == 0,
        )
        if system.reliability is not None:
            nan = float("nan")
            breakdown = (
                system.metrics.average_cost_breakdown(
                    skip=config.resolved_warmup)
                if result.measured > 0
                else {"protocol": nan, "reliability": nan, "quorum": nan,
                      "hedge": nan, "cache": nan, "reconfig": nan,
                      "recovery": nan, "detector": nan}
            )
            row.update(
                acc_protocol_share=_finite(breakdown["protocol"]),
                acc_reliability_share=_finite(breakdown["reliability"]),
                retransmissions=stats.retransmissions,
                acks=stats.acks,
                drops=stats.drops,
                duplicates_suppressed=stats.duplicates_suppressed,
                delivery_failures=stats.delivery_failures,
            )
            if system.spec.quorum_based:
                row.update(
                    acc_quorum_share=_finite(breakdown["quorum"]),
                    dgram_abandoned=stats.dgram_abandoned,
                )
            if config.gray_failure:
                # gray-failure columns, gated on the new config surface
                # (slow windows / hedging) so every pre-existing row —
                # and the committed scenario baselines compared byte-
                # for-byte in CI — stays byte-identical.
                part = system.metrics.partition
                lat = (
                    system.metrics.latency_stats(
                        skip=config.resolved_warmup)
                    if result.measured > 0
                    else {"p50": nan, "p95": nan, "p99": nan}
                )
                row.update(
                    acc_hedge_share=_finite(breakdown["hedge"]),
                    hedges_launched=stats.hedges_launched,
                    demotions=part.demotions,
                    restorations=part.restorations,
                    latency_p50=_finite(lat["p50"]),
                    latency_p95=_finite(lat["p95"]),
                    latency_p99=_finite(lat["p99"]),
                )
            if system.reconfig is not None:
                rc = system.metrics.reconfig
                row.update(
                    acc_reconfig_share=_finite(breakdown["reconfig"]),
                    reconfig_transitions=rc.transitions,
                    reconfig_commits=rc.commits,
                    reconfig_aborts=rc.aborts,
                    reconfig_ops_redriven=rc.ops_redriven,
                    transfer_objects=rc.transfer_objects,
                    transfer_retries=rc.transfer_retries,
                    transfer_cost=_finite(rc.transfer_cost),
                    joint_time=_finite(rc.joint_time),
                    quorum_reselections=stats.quorum_reselections,
                    final_epoch=system.cluster.epoch,
                )
            if system.recovery is not None:
                rec = system.metrics.recovery
                row.update(
                    acc_recovery_share=_finite(breakdown["recovery"]),
                    failovers=rec.failovers,
                    epoch_resets=rec.epoch_resets,
                    ops_lost=rec.ops_lost,
                    ops_redriven=rec.ops_redriven,
                    resync_objects=rec.resync_objects,
                    resync_cost=_finite(rec.resync_cost),
                    quarantine_time=_finite(rec.quarantine_time),
                )
            if system.partitions is not None:
                part = system.metrics.partition
                row.update(
                    acc_detector_share=_finite(breakdown["detector"]),
                    heartbeats=part.heartbeats,
                    suspicions=part.suspicions,
                    partition_rejoins=part.rejoins,
                    stale_reads_served=part.stale_reads_served,
                    sends_absorbed=part.sends_absorbed,
                    ops_stalled=part.ops_stalled,
                    suppressed_violations=part.suppressed_violations,
                    partition_time=_finite(part.partition_time),
                )
        if config.cache is not None:
            # bounded-replica-cache columns, gated on the cache being
            # configured so cache-off rows stay byte-identical.  Not
            # nested under the reliability block: a cache needs no
            # reliable-delivery layer.
            cstats = system.metrics.cache
            cache_share = (
                system.metrics.average_cost_breakdown(
                    skip=config.resolved_warmup)["cache"]
                if result.measured > 0 else float("nan")
            )
            row.update(
                acc_cache_share=_finite(cache_share),
                cache_hits=cstats.hits,
                cache_misses=cstats.misses,
                capacity_misses=cstats.capacity_misses,
                cache_evictions=cstats.evictions,
                cache_writebacks=cstats.writebacks,
                cache_refetch_cost=_finite(cstats.refetch_cost),
                cache_cost=_finite(cstats.cost),
            )
        if config.monitor:
            row.update(
                violations=len(result.violations),
                violation_kinds=sorted(
                    {v.kind for v in result.violations}
                ),
                sc_inconclusive=system.monitor.inconclusive,
            )
    if cell.kind == "compare":
        acc_a = row["acc_analytic"]
        acc_s = row["acc_sim"]
        if acc_a is None or acc_s is None:
            row["discrepancy_pct"] = None
        elif abs(acc_a) < 1e-9:
            # the paper's blank/zero cells: zero-cost steady state; any
            # simulated residue is the bounded cold-start transient.
            row["discrepancy_pct"] = (
                0.0 if abs(acc_s) < 1e-9 else None
            )
        else:
            row["discrepancy_pct"] = 100.0 * (acc_a - acc_s) / acc_a
    return row


def _failed_row(cell: SweepCell, error: str) -> dict:
    """The row recorded for a cell that could not be evaluated."""
    return {
        "id": cell.cell_id(),
        "kind": cell.kind,
        "protocol": cell.protocol,
        "deviation": cell.deviation.value,
        "p": cell.params.p,
        "disturb": cell.disturb,
        "params": cell.params.to_dict(),
        "status": "failed",
        "error": error,
    }


def _worker(payload: dict) -> dict:
    """Worker-process entry point: rebuild the cell, evaluate it.

    The elapsed wall-clock rides back under ``"_wall_clock_s"``; the
    runner strips it out of the row before anything durable sees it.
    """
    start = perf_counter()
    row = run_cell(SweepCell.from_payload(payload))
    row["_wall_clock_s"] = perf_counter() - start
    return row


def row_line(row: dict) -> str:
    """The canonical JSONL encoding of one row (byte-stable)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


@dataclass
class SweepResult:
    """The outcome of one :meth:`SweepRunner.run` invocation."""

    #: rows in spec order (failed cells included with ``status="failed"``)
    rows: List[dict]
    #: cells evaluated in this invocation
    computed: int
    #: cells served from the result cache
    cached: int
    #: cells recorded as failed
    failed: int
    #: where the JSONL stream went (``None`` when not written)
    out_path: Optional[Path] = None
    #: cache counters for this invocation (``None`` when caching is off)
    cache_stats: Optional[CacheStats] = None
    #: wall-clock seconds per cell id, for cells computed this invocation
    #: (cached cells cost no simulation time and are absent)
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.rows)

    def ok_rows(self) -> List[dict]:
        return [r for r in self.rows if r["status"] == "ok"]

    def max_abs_discrepancy_pct(self) -> float:
        """Largest finite ``|discrepancy|`` across compare rows (or 0)."""
        vals = [
            abs(r["discrepancy_pct"]) for r in self.ok_rows()
            if r.get("discrepancy_pct") is not None
        ]
        return max(vals) if vals else 0.0


class SweepRunner:
    """Evaluate a :class:`~repro.exp.spec.SweepSpec`, possibly in parallel.

    Args:
        spec: the cells to evaluate.
        workers: worker processes; ``1`` (the default) runs in-process.
        cache: a :class:`~repro.exp.cache.ResultCache`, a cache directory
            path, or ``None`` to disable caching.
        out_path: JSONL file streamed as rows complete (parent directories
            are created; an existing file is overwritten).
        progress: optional ``callback(done, total, row)`` fired after
            every row (cached and computed alike).
        registry: optional :class:`~repro.obs.MetricsRegistry` the run
            publishes into — ``sweep.cells`` / ``sweep.computed`` /
            ``sweep.cached`` / ``sweep.failed`` counters, a
            ``sweep.events_executed`` counter and a
            ``sweep.cell_wall_clock_s`` histogram of per-cell compute
            times.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        workers: int = 1,
        cache: Union[ResultCache, str, Path, None] = None,
        out_path: Union[str, Path, None] = None,
        progress: Optional[ProgressFn] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.cache = as_cache(cache)
        self.out_path = None if out_path is None else Path(out_path)
        self.progress = progress
        self.registry = registry

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self) -> SweepResult:
        """Evaluate every cell; never raises for an individual cell."""
        cells = list(self.spec)
        total = len(cells)
        rows: List[Optional[dict]] = [None] * total
        timings: Dict[str, float] = {}
        cached = failed = 0
        out_fh = None
        if self.out_path is not None:
            self.out_path.parent.mkdir(parents=True, exist_ok=True)
            out_fh = open(self.out_path, "w", encoding="utf-8")
        done = 0

        def emit(index: int, row: dict) -> None:
            nonlocal done
            rows[index] = row
            done += 1
            if out_fh is not None:
                out_fh.write(row_line(row) + "\n")
                out_fh.flush()
            if self.progress is not None:
                self.progress(done, total, row)

        try:
            pending: List[Tuple[int, SweepCell]] = []
            for index, cell in enumerate(cells):
                hit = None if self.cache is None else self.cache.get(cell)
                if hit is not None:
                    cached += 1
                    emit(index, hit)
                else:
                    pending.append((index, cell))

            for index, row in self._execute(pending):
                # timing is transport metadata, not a result: strip it
                # before the row reaches the cache, the JSONL stream or
                # the caller.
                wall = row.pop("_wall_clock_s", None)
                if wall is not None:
                    timings[row["id"]] = wall
                if row["status"] == "failed":
                    failed += 1
                elif self.cache is not None:
                    self.cache.put(cells[index], row)
                emit(index, row)
        finally:
            if out_fh is not None:
                out_fh.close()

        result = SweepResult(
            rows=[r for r in rows if r is not None],
            computed=total - cached,
            cached=cached,
            failed=failed,
            out_path=self.out_path,
            cache_stats=None if self.cache is None else self.cache.stats,
            timings=timings,
        )
        if self.registry is not None:
            self._publish(result)
        return result

    def _publish(self, result: SweepResult) -> None:
        """Publish this invocation's totals into ``self.registry``."""
        reg = self.registry
        reg.counter("sweep.cells", "cells requested").inc(result.total)
        reg.counter("sweep.computed",
                    "cells evaluated this run").inc(result.computed)
        reg.counter("sweep.cached",
                    "cells served from the result cache").inc(result.cached)
        reg.counter("sweep.failed",
                    "cells recorded as failed").inc(result.failed)
        events = reg.counter("sweep.events_executed",
                             "simulator events across ok rows")
        for row in result.ok_rows():
            events.inc(row.get("events_executed", 0))
        hist = reg.histogram("sweep.cell_wall_clock_s",
                             "per-cell compute wall-clock seconds")
        for wall in result.timings.values():
            hist.observe(wall)

    def _execute(
        self, pending: List[Tuple[int, SweepCell]]
    ) -> Iterator[Tuple[int, dict]]:
        """Yield ``(index, row)`` for every pending cell as it finishes."""
        if not pending:
            return
        if self.workers == 1:
            for index, cell in pending:
                try:
                    # same payload round-trip as the worker path, so a
                    # serial run is bit-identical to a parallel one even
                    # if a cell was built with non-canonical types
                    # (e.g. S=100 instead of S=100.0).
                    yield index, _worker(cell.to_payload())
                except Exception as exc:
                    yield index, _failed_row(cell, f"{type(exc).__name__}: "
                                                   f"{exc}")
            return
        yield from self._execute_parallel(pending)

    def _execute_parallel(
        self, pending: List[Tuple[int, SweepCell]]
    ) -> Iterator[Tuple[int, dict]]:
        # loaded here: they pull in multiprocessing, which a serial
        # sweep never needs
        from concurrent.futures import (
            FIRST_COMPLETED, ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool

        retry: List[Tuple[int, SweepCell]] = []
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {}
            for position, (index, cell) in enumerate(pending):
                try:
                    future = pool.submit(_worker, cell.to_payload())
                except BrokenProcessPool:
                    # a worker crashed the pool while cells were still
                    # being submitted: the cells not yet submitted get
                    # their second chance below, like collateral damage.
                    retry.extend(pending[position:])
                    break
                futures[future] = (index, cell)
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index, cell = futures[future]
                    try:
                        yield index, future.result()
                    except BrokenProcessPool:
                        # the pool died under this future — whether this
                        # cell crashed the worker or was collateral
                        # damage is indistinguishable, so retry each one
                        # in isolation below.
                        retry.append((index, cell))
                    except Exception as exc:
                        yield index, _failed_row(
                            cell, f"{type(exc).__name__}: {exc}"
                        )
        # Second chance: one fresh single-worker pool per cell, so a
        # deterministic crasher only sinks itself.
        for index, cell in retry:
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    yield index, pool.submit(
                        _worker, cell.to_payload()
                    ).result()
            except BrokenProcessPool:
                yield index, _failed_row(cell, "worker process crashed")
            except Exception as exc:
                yield index, _failed_row(cell,
                                         f"{type(exc).__name__}: {exc}")


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    out_path: Union[str, Path, None] = None,
    progress: Optional[ProgressFn] = None,
    registry: Optional[MetricsRegistry] = None,
) -> SweepResult:
    """Convenience wrapper: build a :class:`SweepRunner` and run it."""
    return SweepRunner(
        spec, workers=workers, cache=cache, out_path=out_path,
        progress=progress, registry=registry,
    ).run()
