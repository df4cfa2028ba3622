"""Analytical-vs-simulation comparison harness (paper Table 7, Section 5.2).

The paper validates the analytic model by executing the protocols in a
multitasking simulator under synthetic workloads: ``N = 3`` clients (one
activity center, ``a = 2`` readers), ``M = 20`` shared objects,
``P = 30``, ``S = 100``; per ``(p, sigma)`` cell the first 500 operations
are discarded and about 1500 steady-state operations measured.  The
reported maximum discrepancy is below ±8%.

:func:`compare_cell` reproduces one cell; :func:`comparison_table`
reproduces a whole protocol panel of Table 7 (skipping infeasible cells,
which appear blank in the paper).  A cell is
:func:`~repro.exp.runner.run_cell` on a ``kind="compare"``
:class:`~repro.exp.spec.SweepCell`, so the harness, the sweep engine and
the scenario catalog share one run path and one discrepancy definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.parameters import Deviation, WorkloadParams
from ..exp.runner import run_cell
from ..exp.spec import SweepCell
from ..sim.config import RunConfig

__all__ = ["CellResult", "ComparisonTable", "compare_cell", "comparison_table"]


def _resolve_config(where: str, config: Optional[RunConfig]) -> RunConfig:
    """Default to the paper's Table 7 budget; reject non-RunConfig values.

    The pre-1.2 ``total_ops=/warmup=/seed=`` keywords (and the bare int
    in the config slot) were removed; they now raise :class:`TypeError`.
    """
    if config is None:
        return RunConfig(ops=2000, warmup=500, seed=0)
    if not isinstance(config, RunConfig):
        raise TypeError(
            f"{where}: config must be a RunConfig, got "
            f"{type(config).__name__}; the pre-1.2 total_ops/warmup/seed "
            "arguments were removed — pass "
            "config=RunConfig(ops=2000, warmup=500, seed=0)"
        )
    return config


@dataclass
class CellResult:
    """One ``(p, disturb)`` cell: analytical vs simulated ``acc``.

    ``discrepancy_pct`` is the ``discrepancy_pct`` column of
    :func:`~repro.exp.runner.run_cell`'s compare row: the paper's
    ``100 * (acc_analytic - acc_sim) / acc_analytic``, 0 when both
    vanish.  A value the row leaves ``None`` (undefined, like the paper's
    blank cells) reads ``nan`` here.
    """

    p: float
    disturb: float
    acc_analytic: float
    acc_sim: float
    discrepancy_pct: float

    @classmethod
    def from_row(cls, row: dict) -> "CellResult":
        """The cell of one ``kind="compare"`` result row."""
        return cls(row["p"], row["disturb"], *(
            math.nan if row[key] is None else row[key]
            for key in ("acc_analytic", "acc_sim", "discrepancy_pct")
        ))


def compare_cell(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    M: int = 20,
    config: Optional[RunConfig] = None,
) -> CellResult:
    """Analytical vs simulated ``acc`` for one parameter point.

    Args:
        protocol: registry name.
        params: the workload parameters of the cell.
        deviation: workload deviation.
        M: number of shared objects in the simulated system.
        config: a :class:`~repro.sim.config.RunConfig`; the simulated
            system is built from it (faults, reliability, caches and the
            rest apply), so the validation harness can also compare
            degraded runs against the fault-free model.
            Defaults to the paper's Table 7 budget (``ops=2000,
            warmup=500, seed=0``).
    """
    cell = SweepCell(protocol, params, deviation, kind="compare", M=M,
                     config=_resolve_config("compare_cell", config))
    return CellResult.from_row(run_cell(cell))


@dataclass
class ComparisonTable:
    """A Table 7 panel: all feasible cells for one protocol."""

    protocol: str
    deviation: Deviation
    cells: List[CellResult]

    @property
    def max_abs_discrepancy_pct(self) -> float:
        """The paper's headline number (should be < 8%)."""
        vals = [
            abs(c.discrepancy_pct) for c in self.cells
            if math.isfinite(c.discrepancy_pct)
        ]
        return max(vals) if vals else 0.0

    def format(self) -> str:
        """Fixed-width text rendering in the style of Table 7."""
        lines = [
            f"{self.protocol} ({self.deviation.value}); "
            f"max |discrepancy| = {self.max_abs_discrepancy_pct:.2f}%",
            f"{'p':>6} {'dist':>6} {'analytic':>12} {'simulated':>12} "
            f"{'disc %':>8}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.p:6.2f} {c.disturb:6.2f} {c.acc_analytic:12.3f} "
                f"{c.acc_sim:12.3f} {c.discrepancy_pct:8.2f}"
            )
        return "\n".join(lines)


def comparison_table(
    protocol: str,
    base: WorkloadParams,
    p_values: Sequence[float],
    disturb_values: Sequence[float],
    deviation: Deviation = Deviation.READ,
    M: int = 20,
    config: Optional[RunConfig] = None,
) -> ComparisonTable:
    """Reproduce one protocol panel of Table 7 over a parameter grid.

    Infeasible cells (``p + a * disturb > 1``) are skipped; ``p = 0``
    columns are included (both model and simulation yield ``acc = 0``).
    Each cell uses an independent fresh system and a seed derived from the
    cell coordinates (``config.seed + 1000 * i + j``) for
    reproducibility.
    """
    config = _resolve_config("comparison_table", config)
    cells: List[CellResult] = []
    for i, p in enumerate(p_values):
        for j, d in enumerate(disturb_values):
            if p + base.a * d > 1.0 + 1e-12:
                continue
            if deviation is Deviation.READ:
                w = base.with_(p=float(p), sigma=float(d), xi=0.0)
            else:
                w = base.with_(p=float(p), xi=float(d), sigma=0.0)
            cell_seed = (None if config.seed is None
                         else config.seed + 1000 * i + j)
            cells.append(
                compare_cell(protocol, w, deviation, M=M,
                             config=config.with_(seed=cell_seed))
            )
    return ComparisonTable(protocol, deviation, cells)
