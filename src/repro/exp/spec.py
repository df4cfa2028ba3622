"""Declarative sweep specifications.

A *sweep* is a set of independent experiment cells — each cell fixes a
protocol, a :class:`~repro.core.parameters.WorkloadParams` point, a
deviation and a :class:`~repro.sim.config.RunConfig` — evaluated by the
:class:`~repro.exp.runner.SweepRunner`.  Cells come in three kinds:

``analytic``
    evaluate :func:`repro.core.acc.analytical_acc` only (Table 6 /
    Figure 5 style grids; cheap, exact);
``sim``
    run the discrete-event simulator only (fault/reliability studies);
``compare``
    both, plus the paper's discrepancy statistic (Table 7 style grids).

Cells are value objects: fully serializable to plain-JSON payloads
(:meth:`SweepCell.to_payload` / :meth:`SweepCell.from_payload`) so worker
processes rebuild them from scratch, and content-addressable
(:meth:`SweepCell.key_dict` / :meth:`SweepCell.cell_id`) so the result
cache can recognize a cell it has already computed.

Determinism: :meth:`SweepSpec.cartesian` derives every cell's workload
seed from the spec's base seed and the cell's own coordinates via a stable
hash (:func:`derive_cell_seed`).  A cell's result therefore depends only
on its own content — never on expansion order or on which worker computes
it — which is what makes parallel sweeps bit-identical to serial ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Tuple

from ..core.parameters import Deviation, WorkloadParams, parameter_grid
from ..sim.config import RunConfig
from ..util import field_kwargs

__all__ = ["CELL_KINDS", "SweepCell", "SweepSpec", "derive_cell_seed"]

#: the three cell kinds understood by the engine
CELL_KINDS: Tuple[str, ...] = ("analytic", "sim", "compare")

_SEED_SPACE = 2**63  # keep derived seeds inside numpy's SeedSequence range


def _canonical(data) -> str:
    """Canonical JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def derive_cell_seed(base_seed: int, *parts) -> int:
    """A stable per-cell seed from the sweep seed and cell coordinates.

    The derivation hashes the canonical JSON of ``(base_seed, *parts)``,
    so it is independent of expansion order, worker assignment and Python
    hash randomization — the property that makes parallel sweeps
    bit-identical to serial ones.
    """
    digest = hashlib.sha256(
        _canonical([base_seed, *parts]).encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


@dataclass(frozen=True)
class SweepCell:
    """One independent experiment cell of a sweep.

    Args:
        protocol: registry name.
        params: the workload-parameter point.
        deviation: workload deviation.
        kind: ``"analytic"``, ``"sim"`` or ``"compare"``.
        M: number of shared objects in the simulated system (ignored by
            pure-analytic cells; the model is per-object).
        method: analytic evaluation method (``auto``/``closed_form``/
            ``markov``); ignored by pure-sim cells.
        config: the run configuration driving the simulated part.
    """

    protocol: str
    params: WorkloadParams
    deviation: Deviation = Deviation.READ
    kind: str = "compare"
    M: int = 20
    method: str = "auto"
    config: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"kind must be one of {CELL_KINDS}, got {self.kind!r}"
            )
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def disturb(self) -> float:
        """The cell's disturbance coordinate (``sigma`` or ``xi``)."""
        if self.deviation is Deviation.WRITE:
            return self.params.xi
        return self.params.sigma

    @property
    def simulates(self) -> bool:
        return self.kind in ("sim", "compare")

    @property
    def analyzes(self) -> bool:
        return self.kind in ("analytic", "compare")

    def with_(self, **changes) -> "SweepCell":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # content addressing and transport
    # ------------------------------------------------------------------

    def key_dict(self) -> dict:
        """The canonical identity of this cell's *result*.

        Only fields that can change the outcome participate: an analytic
        cell's key ignores the run configuration and ``M`` (the model is
        per-object and deterministic), a sim cell's key ignores the
        analytic ``method``.  Hash this (plus the package version) to get
        the result-cache key.
        """
        key = {
            "protocol": self.protocol,
            "params": self.params.to_dict(),
            "deviation": self.deviation.value,
            "kind": self.kind,
        }
        if self.analyzes:
            key["method"] = self.method
        if self.simulates:
            key["M"] = self.M
            config = self.config.to_dict()
            # tracing only observes a run, it can never change the row —
            # so a traced cell shares its identity (and cache entry)
            # with the untraced one.
            config.pop("tracing", None)
            key["config"] = config
        return key

    def cell_id(self) -> str:
        """A short stable identifier (12 hex chars of the key hash)."""
        return hashlib.sha256(
            _canonical(self.key_dict()).encode("ascii")
        ).hexdigest()[:12]

    def to_payload(self) -> dict:
        """A plain-JSON dict a worker process can rebuild the cell from."""
        return {
            "protocol": self.protocol,
            "params": self.params.to_dict(),
            "deviation": self.deviation.value,
            "kind": self.kind,
            "M": self.M,
            "method": self.method,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepCell":
        """Rebuild a cell from :meth:`to_payload` output."""
        return cls(**field_kwargs(
            cls, payload, "sweep cell",
            params=WorkloadParams.from_dict, deviation=Deviation,
            config=RunConfig.from_dict,
        ))


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of :class:`SweepCell` to evaluate.

    Build one with :meth:`cartesian` (a protocol × grid product with
    feasibility filtering and derived per-cell seeds) or :meth:`explicit`
    (hand-assembled cells, e.g. a benchmark that needs historical seeds).
    """

    cells: Tuple[SweepCell, ...]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @classmethod
    def explicit(cls, cells: Iterable[SweepCell]) -> "SweepSpec":
        """A spec from an explicit cell list (kept in the given order)."""
        return cls(cells=tuple(cells))

    @classmethod
    def cartesian(
        cls,
        protocols: Sequence[str],
        base: WorkloadParams,
        p_values: Sequence[float],
        disturb_values: Sequence[float] = (0.0,),
        deviation: Deviation = Deviation.READ,
        kind: str = "compare",
        M: int = 20,
        method: str = "auto",
        config: Optional[RunConfig] = None,
        seed: Optional[int] = 0,
    ) -> "SweepSpec":
        """Expand ``protocols × p_values × disturb_values`` into cells.

        Infeasible grid points (``p + a * disturb > 1``) are skipped,
        matching the blank cells of the paper's tables.
        ``disturb_values`` parameterizes ``sigma`` (read disturbance) or
        ``xi`` (write disturbance) and is ignored for the
        multiple-activity-centers deviation.

        Each cell's workload seed is ``derive_cell_seed(seed, protocol,
        deviation, p, disturb)`` — order-independent, so a parallel run
        is bit-identical to a serial one.  ``seed=None`` leaves every
        cell unseeded (non-reproducible; the cache is disabled for such
        cells by the runner).
        """
        config = config if config is not None else RunConfig()
        cells = []
        for protocol in protocols:
            for p, d, params in parameter_grid(
                base, p_values, disturb_values, deviation
            ):
                cell_seed = (
                    None if seed is None
                    else derive_cell_seed(seed, protocol, deviation.value,
                                          float(p), float(d))
                )
                cells.append(
                    SweepCell(
                        protocol=protocol,
                        params=params,
                        deviation=deviation,
                        kind=kind,
                        M=M,
                        method=method,
                        config=config.with_(seed=cell_seed),
                    )
                )
        return cls(cells=tuple(cells))
