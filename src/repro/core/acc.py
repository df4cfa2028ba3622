"""Unified analytic evaluation: ``analytical_acc(protocol, params, deviation)``.

Dispatches between the closed forms (:mod:`repro.core.closed_forms`) and the
exact Markov evaluation (:mod:`repro.core.chains`).  Both agree to machine
precision wherever a closed form exists (enforced by the test suite), so
``method="auto"`` simply prefers the cheaper closed form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Literal, Tuple, get_args

from .chains import markov_acc
from .closed_forms import closed_form_acc, has_closed_form
from .parameters import Deviation, WorkloadParams

__all__ = ["analytical_acc", "acc_table"]

Method = Literal["auto", "closed_form", "markov"]
#: the analytic evaluation methods, as the CLI and scenarios spell them
METHODS: Tuple[str, ...] = get_args(Method)


@lru_cache(maxsize=100_000)
def _markov_cached(protocol: str, params: WorkloadParams,
                   deviation: Deviation) -> float:
    # WorkloadParams is frozen/hashable, so chain solutions memoize cleanly
    # across surface grids and benchmarks.
    return markov_acc(protocol, params, deviation)


def analytical_acc(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    method: Method = "auto",
) -> float:
    """Steady-state average communication cost per operation (eqn. (1)).

    Args:
        protocol: registry name (e.g. ``"berkeley"``).
        params: the model parameters (Table 5).
        deviation: workload deviation (Section 4.2).
        method: ``"closed_form"`` forces the closed form (KeyError when
            none exists), ``"markov"`` forces the exact chain evaluation,
            ``"auto"`` picks the closed form when available.

    Returns:
        ``acc`` in communication-cost units.
    """
    if method == "closed_form":
        return closed_form_acc(protocol, params, deviation)
    if method == "markov":
        return _markov_cached(protocol, params, deviation)
    if has_closed_form(protocol, deviation):
        return closed_form_acc(protocol, params, deviation)
    return _markov_cached(protocol, params, deviation)


def acc_table(
    protocols: Iterable[str],
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    method: Method = "auto",
) -> dict:
    """``{protocol: acc}`` for a set of protocols at one parameter point."""
    return {
        name: analytical_acc(name, params, deviation, method)
        for name in protocols
    }
