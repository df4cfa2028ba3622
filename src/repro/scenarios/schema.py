"""The scenario document model.

A *scenario* is the declarative form of one experiment: a protocol set, a
base workload, a run configuration and a sweep axis, validated strictly
(unknown keys are rejected with did-you-mean suggestions) and expanded
into the same :class:`~repro.exp.spec.SweepCell` objects a hand-written
benchmark would build — so scenario runs flow through the parallel sweep
engine and its content-addressed result cache *unchanged*, and a catalog
entry that mirrors a legacy benchmark produces byte-identical JSONL rows
and shares its cache entries.

Document shape (JSON or TOML)::

    {
      "name": "table7",                  # defaults to the file stem
      "title": "...", "description": "...", "tags": ["paper"],
      "extends": "parent",               # resolved by the loader
      "protocols": ["write_once", ...],  # or "all" (the paper's eight)
      "deviation": "read",               # read | write | mac
      "workload": {"N": 3, "a": 2, "S": 100.0, "P": 30.0},
      "run":      {"ops": 4000, "warmup": 1000},   # RunConfig fields
      "kind": "compare", "M": 20, "method": "auto",
      "sweep": { ... }                   # cartesian or explicit, below
    }

Sweep axes come in two modes.  ``cartesian`` expands
``protocols x p_values x disturb_values`` with the same feasibility
filtering as the paper's tables (``p + a*disturb <= 1``), under one of
three seed rules:

* ``derived`` (default) — per-cell seeds from
  :func:`~repro.exp.spec.derive_cell_seed` (order-independent, the sweep
  engine's native rule);
* ``indexed`` — ``base + stride*i + j`` over the grid indices, the
  historical rule of the Table 7 harness;
* ``fixed`` — every cell runs with the scenario's own ``run.seed``.

``explicit`` lists cells by hand; each cell may override the workload
point (``p``/``sigma``/``xi``), the seed, ``M`` and any part of the run
configuration (deep-merged over the scenario's ``run`` section) — which
is how fault grids, partition studies and quorum campaigns become plain
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.acc import METHODS
from ..core.parameters import DEVIATION_ALIASES, Deviation, WorkloadParams
from ..exp.spec import CELL_KINDS, SweepCell, SweepSpec
from ..protocols.registry import get_protocol, protocol_names
from ..sim.config import RunConfig
from ..util import reject_unknown_keys

__all__ = [
    "CellOverride",
    "Scenario",
    "ScenarioError",
    "SweepAxes",
    "deep_merge",
]

#: seed rules understood by cartesian sweeps
SEED_RULES = ("derived", "indexed", "fixed")
#: sweep modes
SWEEP_MODES = ("cartesian", "explicit")

#: short deviation aliases (the CLI's vocabulary) plus the enum values
DEVIATIONS = {**DEVIATION_ALIASES, **{d.value: d for d in Deviation}}

_TOP_KEYS = ("name", "title", "description", "tags", "extends", "protocols",
             "deviation", "workload", "run", "kind", "M", "method", "sweep")
_SEED_KEYS = ("rule", "base", "stride")
_CARTESIAN_KEYS = ("mode", "p_values", "disturb_values", "seeds")
_EXPLICIT_KEYS = ("mode", "cells")
_CELL_KEYS = ("p", "sigma", "xi", "seed", "M", "label", "run")


class ScenarioError(ValueError):
    """A scenario file that does not validate (or fails to resolve)."""


def deep_merge(base: Dict[str, Any], override: Dict[str, Any]) -> dict:
    """Merge ``override`` into ``base``: dicts merge key-wise, recursively;
    everything else (scalars, lists, explicit ``null``) replaces."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


@dataclass(frozen=True)
class CellOverride:
    """One explicit-mode cell: overrides over the scenario's base point.

    Only the fields a cell sets are serialized; everything left ``None``
    inherits from the scenario (``p``/``sigma``/``xi`` from ``workload``,
    ``seed`` and the rest of the run configuration from ``run``, ``M``
    from the scenario's ``M``).
    """

    p: Optional[float] = None
    sigma: Optional[float] = None
    xi: Optional[float] = None
    seed: Optional[int] = None
    M: Optional[int] = None
    label: Optional[str] = None
    #: partial :class:`RunConfig` dict, deep-merged over the scenario run
    run: Optional[Dict[str, Any]] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "CellOverride":
        _require(isinstance(data, dict), f"{where} must be a table/object")
        reject_unknown_keys(data, _CELL_KEYS, where)
        run = data.get("run")
        if run is not None:
            _require(isinstance(run, dict),
                     f"{where}: 'run' must be a table/object")
        return cls(
            p=None if data.get("p") is None else float(data["p"]),
            sigma=(None if data.get("sigma") is None
                   else float(data["sigma"])),
            xi=None if data.get("xi") is None else float(data["xi"]),
            seed=None if data.get("seed") is None else int(data["seed"]),
            M=None if data.get("M") is None else int(data["M"]),
            label=data.get("label"),
            run=run,
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key in ("p", "sigma", "xi", "seed", "M", "label", "run"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class SweepAxes:
    """A scenario's sweep axis — cartesian grid or explicit cell list."""

    mode: str
    p_values: Tuple[float, ...] = ()
    disturb_values: Tuple[float, ...] = (0.0,)
    seed_rule: str = "derived"
    seed_base: int = 0
    seed_stride: int = 1000
    cells: Tuple[CellOverride, ...] = ()

    @classmethod
    def single_cell(cls) -> "SweepAxes":
        """The default axis: one cell at the scenario's own point."""
        return cls(mode="explicit", cells=(CellOverride(),))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepAxes":
        _require(isinstance(data, dict), "'sweep' must be a table/object")
        mode = data.get("mode")
        _require(mode in SWEEP_MODES,
                 f"sweep 'mode' must be one of {SWEEP_MODES}, "
                 f"got {mode!r}")
        if mode == "explicit":
            reject_unknown_keys(data, _EXPLICIT_KEYS, "explicit sweep")
            raw_cells = data.get("cells")
            _require(isinstance(raw_cells, list) and raw_cells,
                     "explicit sweep needs a non-empty 'cells' list")
            return cls(mode=mode, cells=tuple(
                CellOverride.from_dict(entry, f"sweep cell #{i}")
                for i, entry in enumerate(raw_cells)
            ))
        reject_unknown_keys(data, _CARTESIAN_KEYS, "cartesian sweep")
        p_values = data.get("p_values")
        _require(isinstance(p_values, list) and p_values,
                 "cartesian sweep needs a non-empty 'p_values' list")
        # missing keys take their field defaults (the class attributes)
        disturb = data.get("disturb_values", list(cls.disturb_values))
        _require(isinstance(disturb, list) and disturb,
                 "'disturb_values' must be a non-empty list")
        seeds = data.get("seeds", {})
        _require(isinstance(seeds, dict),
                 "'seeds' must be a table/object")
        reject_unknown_keys(seeds, _SEED_KEYS, "sweep 'seeds'")
        rule = seeds.get("rule", cls.seed_rule)
        _require(rule in SEED_RULES,
                 f"seed 'rule' must be one of {SEED_RULES}, got {rule!r}")
        return cls(
            mode=mode,
            p_values=tuple(float(p) for p in p_values),
            disturb_values=tuple(float(d) for d in disturb),
            seed_rule=rule,
            seed_base=int(seeds.get("base", cls.seed_base)),
            seed_stride=int(seeds.get("stride", cls.seed_stride)),
        )

    def to_dict(self) -> Dict[str, Any]:
        if self.mode == "explicit":
            return {
                "mode": "explicit",
                "cells": [cell.to_dict() for cell in self.cells],
            }
        return {
            "mode": "cartesian",
            "p_values": list(self.p_values),
            "disturb_values": list(self.disturb_values),
            "seeds": {
                "rule": self.seed_rule,
                "base": self.seed_base,
                "stride": self.seed_stride,
            },
        }


@dataclass(frozen=True)
class Scenario:
    """One fully resolved, validated scenario (``extends`` already merged).

    Value object: round-trips through :meth:`to_dict` /
    :meth:`from_dict` identically, and :meth:`to_spec` deterministically
    expands it into the :class:`~repro.exp.spec.SweepSpec` the sweep
    engine evaluates.
    """

    name: str
    protocols: Tuple[str, ...]
    workload: WorkloadParams
    run: RunConfig
    sweep: SweepAxes
    deviation: Deviation = Deviation.READ
    kind: str = "compare"
    M: int = 20
    method: str = "auto"
    title: str = ""
    description: str = ""
    tags: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # parsing / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], *, default_name: Optional[str] = None
    ) -> "Scenario":
        """Validate a resolved scenario document into a :class:`Scenario`.

        Strict: unknown keys anywhere in the document raise
        :class:`ScenarioError` with a did-you-mean suggestion.  An
        unresolved ``extends`` is also an error — inheritance is the
        loader's job (:func:`repro.scenarios.load_scenario`).
        """
        _require(isinstance(data, dict),
                 "a scenario document must be a table/object")
        try:
            reject_unknown_keys(data, _TOP_KEYS, "scenario document")
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        _require(data.get("extends") is None,
                 "'extends' must be resolved before validation — load the "
                 "scenario through a catalog (repro.scenarios"
                 ".load_scenario), not Scenario.from_dict")
        name = data.get("name", default_name)
        _require(isinstance(name, str) and bool(name.strip()),
                 "a scenario needs a non-empty 'name'")

        protocols = data.get("protocols")
        if protocols == "all":
            protocols = protocol_names()
        _require(isinstance(protocols, list) and protocols,
                 "'protocols' must be a non-empty list of protocol names "
                 "(or the string \"all\" for the paper's eight)")
        resolved = tuple(get_protocol(p).name for p in protocols)
        _require(len(set(resolved)) == len(resolved),
                 f"'protocols' lists a protocol twice: {list(resolved)}")

        # missing keys take their field defaults (the class attributes)
        raw_dev = data.get("deviation", cls.deviation.value)
        _require(raw_dev in DEVIATIONS,
                 f"'deviation' must be one of "
                 f"{sorted(set(DEVIATIONS))}, got {raw_dev!r}")
        deviation = DEVIATIONS[raw_dev]

        workload_data = data.get("workload")
        _require(isinstance(workload_data, dict),
                 "a scenario needs a 'workload' table (at least 'N')")
        workload_data = dict(workload_data)
        workload_data.setdefault("p", 0.0)
        _require("N" in workload_data, "'workload' needs 'N'")
        try:
            workload = WorkloadParams.from_dict(workload_data)
        except ValueError as exc:
            raise ScenarioError(f"invalid 'workload': {exc}") from None

        run_data = data.get("run", {})
        _require(isinstance(run_data, dict),
                 "'run' must be a table/object")
        try:
            run = RunConfig.from_dict(run_data)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid 'run': {exc}") from None
        # canonicalize (resolve the warmup shorthand) so round-trips
        # through to_dict compare equal field-by-field
        run = RunConfig.from_dict(run.to_dict())

        kind = data.get("kind", cls.kind)
        _require(kind in CELL_KINDS,
                 f"'kind' must be one of {CELL_KINDS}, got {kind!r}")
        method = data.get("method", cls.method)
        _require(method in METHODS,
                 f"'method' must be one of {METHODS}, got {method!r}")
        M = int(data.get("M", cls.M))
        _require(M >= 1, f"'M' must be >= 1, got {M}")

        tags = data.get("tags", [])
        _require(isinstance(tags, list)
                 and all(isinstance(t, str) for t in tags),
                 "'tags' must be a list of strings")

        sweep_data = data.get("sweep")
        if sweep_data is None:
            sweep = SweepAxes.single_cell()
        else:
            try:
                sweep = SweepAxes.from_dict(sweep_data)
            except ScenarioError:
                raise
            except (TypeError, ValueError) as exc:
                raise ScenarioError(str(exc)) from None
        try:
            return cls(
                name=name.strip(),
                protocols=resolved,
                workload=workload,
                run=run,
                sweep=sweep,
                deviation=deviation,
                kind=kind,
                M=M,
                method=method,
                title=str(data.get("title", cls.title)),
                description=str(data.get("description", cls.description)),
                tags=tuple(tags),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    def to_dict(self) -> Dict[str, Any]:
        """The canonical resolved document (reparses to an equal scenario)."""
        out: Dict[str, Any] = {"name": self.name}
        if self.title:
            out["title"] = self.title
        if self.description:
            out["description"] = self.description
        if self.tags:
            out["tags"] = list(self.tags)
        out.update(
            protocols=list(self.protocols),
            deviation=self.deviation.value,
            workload=self.workload.to_dict(),
            run=self.run.to_dict(),
            kind=self.kind,
            M=self.M,
            method=self.method,
            sweep=self.sweep.to_dict(),
        )
        return out

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def to_spec(self) -> SweepSpec:
        """Expand into the :class:`SweepSpec` the sweep engine evaluates.

        Deterministic: the same scenario always expands to the same cells
        in the same order (protocol-major, grid/cell order within), so a
        scenario run is byte-identical to the hand-written benchmark it
        mirrors and shares its result-cache entries.
        """
        if self.sweep.mode == "explicit":
            return SweepSpec.explicit(self._explicit_cells())
        if self.sweep.seed_rule == "derived":
            return SweepSpec.cartesian(
                protocols=self.protocols,
                base=self.workload,
                p_values=self.sweep.p_values,
                disturb_values=self.sweep.disturb_values,
                deviation=self.deviation,
                kind=self.kind,
                M=self.M,
                method=self.method,
                config=self.run,
                seed=self.sweep.seed_base,
            )
        return SweepSpec.explicit(self._indexed_cells())

    def _grid_params(self, p: float, d: float) -> WorkloadParams:
        """The workload point at grid coordinate ``(p, d)``."""
        if self.deviation is Deviation.WRITE:
            return self.workload.with_(p=float(p), xi=float(d), sigma=0.0)
        return self.workload.with_(p=float(p), sigma=float(d), xi=0.0)

    def _indexed_cells(self) -> List[SweepCell]:
        """Cartesian cells under the ``indexed`` or ``fixed`` seed rule.

        Mirrors :func:`~repro.core.parameters.parameter_grid` exactly
        (same feasibility tolerance, MAC ignores the disturb axis) but
        keeps the grid *indices* so the ``indexed`` rule can derive the
        historical ``base + stride*i + j`` seeds of the Table 7 harness.
        """
        mac = self.deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS
        disturb = (0.0,) if mac else self.sweep.disturb_values
        cells = []
        for protocol in self.protocols:
            for i, p in enumerate(self.sweep.p_values):
                for j, d in enumerate(disturb):
                    if not mac and p + self.workload.a * d > 1.0 + 1e-12:
                        continue
                    if self.sweep.seed_rule == "indexed":
                        config = self.run.with_(
                            seed=self.sweep.seed_base
                            + self.sweep.seed_stride * i + j
                        )
                    else:  # "fixed": every cell runs the scenario's seed
                        config = self.run
                    params = (
                        self.workload.with_(p=float(p), sigma=0.0, xi=0.0)
                        if mac else self._grid_params(p, d)
                    )
                    cells.append(SweepCell(
                        protocol=protocol,
                        params=params,
                        deviation=self.deviation,
                        kind=self.kind,
                        M=self.M,
                        method=self.method,
                        config=config,
                    ))
        return cells

    def _explicit_cells(self) -> List[SweepCell]:
        run_base = self.run.to_dict()
        cells = []
        for protocol in self.protocols:
            for index, cell in enumerate(self.sweep.cells):
                point = {}
                for axis in ("p", "sigma", "xi"):
                    value = getattr(cell, axis)
                    if value is not None:
                        point[axis] = float(value)
                params = (self.workload.with_(**point) if point
                          else self.workload)
                if cell.run is not None:
                    try:
                        config = RunConfig.from_dict(
                            deep_merge(run_base, cell.run)
                        )
                    except (TypeError, ValueError) as exc:
                        raise ScenarioError(
                            f"scenario {self.name!r} sweep cell #{index}: "
                            f"invalid 'run' override: {exc}"
                        ) from None
                else:
                    config = self.run
                if cell.seed is not None:
                    config = config.with_(seed=cell.seed)
                cells.append(SweepCell(
                    protocol=protocol,
                    params=params,
                    deviation=self.deviation,
                    kind=self.kind,
                    M=self.M if cell.M is None else cell.M,
                    method=self.method,
                    config=config,
                ))
        return cells

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self, max_cells: int = 6) -> str:
        """A multi-line human-readable summary (``repro scenarios show``)."""
        spec = self.to_spec()
        lines = [f"scenario:   {self.name}"]
        if self.title:
            lines.append(f"title:      {self.title}")
        if self.description:
            lines.append(f"description: {self.description}")
        if self.tags:
            lines.append(f"tags:       {', '.join(self.tags)}")
        lines += [
            f"protocols:  {', '.join(self.protocols)}",
            f"deviation:  {self.deviation.value}",
            f"kind:       {self.kind} (M={self.M}, method={self.method})",
            f"workload:   N={self.workload.N} a={self.workload.a} "
            f"beta={self.workload.beta} S={self.workload.S:g} "
            f"P={self.workload.P:g}",
            f"run:        ops={self.run.ops} "
            f"warmup={self.run.resolved_warmup} seed={self.run.seed} "
            f"mean_gap={self.run.mean_gap:g}",
        ]
        for line in self.run.describe_robustness().splitlines():
            lines.append(f"  {line}")
        lines.append(
            f"sweep:      {self.sweep.mode}, {len(spec)} cells"
            + (f" (seed rule: {self.sweep.seed_rule})"
               if self.sweep.mode == "cartesian" else "")
        )
        for cell in list(spec)[:max_cells]:
            lines.append(
                f"  [{cell.cell_id()}] {cell.protocol} p={cell.params.p:g} "
                f"disturb={cell.disturb:g} seed={cell.config.seed}"
            )
        if len(spec) > max_cells:
            lines.append(f"  ... {len(spec) - max_cells} more")
        return "\n".join(lines)
