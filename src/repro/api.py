"""The one-stop programmatic facade (``repro.api``).

Five verbs cover the everyday uses of this reproduction without touching
its internals:

* :func:`acc` — the paper's analytic cost of one protocol at one point;
* :func:`rank` — every protocol sorted by that cost at one point;
* :func:`simulate` — one discrete-event run of a protocol at one point;
* :func:`load_scenario` / :func:`run_scenario` — the declarative
  scenario catalog (:mod:`repro.scenarios`).

Every function accepts plain dicts (and short deviation aliases
``"read"`` / ``"write"`` / ``"mac"``) wherever the underlying API takes a
value object, so the facade is usable straight from a REPL or a JSON
config::

    from repro import api

    api.acc("berkeley", {"N": 8, "p": 0.2, "a": 3, "sigma": 0.1})
    api.rank({"N": 8, "p": 0.2, "a": 3, "sigma": 0.1})[0]
    api.simulate("berkeley", {"N": 8, "p": 0.2, "a": 3, "sigma": 0.1},
                 run={"ops": 2000, "seed": 7}).acc
    api.run_scenario("smoke-table7", workers=4)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .core.acc import analytical_acc
from .core.comparison import rank_protocols
from .core.parameters import Deviation, WorkloadParams
from .exp.runner import SweepResult, simulate_cell
from .exp.spec import SweepCell
from .protocols.registry import get_protocol, protocol_names
from .scenarios.loader import default_catalog_dir, load_scenario
from .scenarios.runner import run_scenario as _run_scenario
from .scenarios.schema import DEVIATIONS, Scenario
from .sim.config import RunConfig
from .sim.system import SimulationResult

__all__ = [
    "acc",
    "list_scenarios",
    "load_scenario",
    "rank",
    "run_scenario",
    "simulate",
]

ParamsLike = Union[WorkloadParams, Dict]
DeviationLike = Union[Deviation, str]
RunLike = Union[RunConfig, Dict, None]


def _params(params: ParamsLike) -> WorkloadParams:
    if isinstance(params, WorkloadParams):
        return params
    data = dict(params)
    data.setdefault("p", 0.0)
    return WorkloadParams.from_dict(data)


def _deviation(deviation: DeviationLike) -> Deviation:
    if isinstance(deviation, Deviation):
        return deviation
    try:
        return DEVIATIONS[deviation]
    except KeyError:
        raise ValueError(
            f"unknown deviation {deviation!r}; expected one of "
            f"{sorted(set(DEVIATIONS))}"
        ) from None


def _run_config(run: RunLike) -> RunConfig:
    if run is None:
        return RunConfig()
    if isinstance(run, RunConfig):
        return run
    return RunConfig.from_dict(run)


def acc(
    protocol: str,
    params: ParamsLike,
    deviation: DeviationLike = Deviation.READ,
    method: str = "auto",
) -> float:
    """The paper's analytic average communication cost per operation.

    Args:
        protocol: registry or display name (resolved via
            :func:`~repro.protocols.get_protocol`).
        params: a :class:`WorkloadParams` or a plain dict of its fields
            (``p`` defaults to ``0``).
        deviation: a :class:`Deviation` or one of the aliases ``"read"``,
            ``"write"``, ``"mac"``.
        method: ``"auto"`` / ``"closed_form"`` / ``"markov"``.
    """
    return analytical_acc(
        get_protocol(protocol).name, _params(params),
        _deviation(deviation), method,
    )


def rank(
    params: ParamsLike,
    deviation: DeviationLike = Deviation.READ,
    protocols: Optional[List[str]] = None,
) -> List[Tuple[str, float]]:
    """Protocols sorted by ascending analytic cost at one point.

    ``protocols`` defaults to the paper's eight; names are resolved via
    :func:`~repro.protocols.get_protocol` so display names work too.
    """
    names = (protocol_names() if protocols is None
             else [get_protocol(p).name for p in protocols])
    return rank_protocols(_params(params), _deviation(deviation), names)


def simulate(
    protocol: str,
    params: ParamsLike,
    deviation: DeviationLike = Deviation.READ,
    run: RunLike = None,
    M: int = 20,
) -> SimulationResult:
    """One discrete-event simulation run of ``protocol`` at one point.

    A ``kind="sim"`` :class:`~repro.exp.spec.SweepCell` through
    :func:`~repro.exp.runner.simulate_cell`, the run path every sweep row
    takes: every fabric knob of ``run`` applies, and a healthy run is
    checked coherent.

    Args:
        run: a :class:`RunConfig`, a plain dict of its fields, or
            ``None`` for the defaults (``ops=4000``, ``seed=0``).
        M: number of shared objects in the simulated system.
    """
    cell = SweepCell(get_protocol(protocol).name, _params(params),
                     _deviation(deviation), kind="sim", M=M,
                     config=_run_config(run))
    return simulate_cell(cell)[1]


def list_scenarios(catalog=None) -> List[str]:
    """Scenario names in ``catalog`` (default: the discovered catalog).

    Returns ``[]`` when no catalog directory exists.
    """
    from .scenarios.loader import ScenarioCatalog

    if catalog is None:
        catalog = default_catalog_dir()
        if catalog is None:
            return []
    if not isinstance(catalog, ScenarioCatalog):
        catalog = ScenarioCatalog(catalog)
    return catalog.names()


def run_scenario(
    scenario: Union[Scenario, str],
    *,
    catalog=None,
    cells: Optional[int] = None,
    workers: int = 1,
    cache=None,
    out_path=None,
    progress=None,
    registry=None,
) -> SweepResult:
    """Run a scenario — by object, catalog name, or file path.

    Strings are resolved via :func:`load_scenario` (catalog name or
    ``.json``/``.toml`` path); the run then flows through the standard
    sweep engine (``workers``/``cache``/``out_path`` as in
    :func:`repro.exp.run_sweep`, ``cells`` truncates for smoke runs).
    """
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario, catalog=catalog)
    return _run_scenario(
        scenario, cells=cells, workers=workers, cache=cache,
        out_path=out_path, progress=progress, registry=registry,
    )
