"""Automatic trace-set discovery (paper Section 4.1, reference [8]).

"It can be shown that for a given coherence protocol the set of all traces
TR is finite [8] and that every operation execution results in exactly one
trace from the set TR.  The set of traces has to be determined by a
thorough analysis of the applied coherence protocol."

This module performs that thorough analysis mechanically: it takes the
reachable reduced state space extracted from the running protocol
(:func:`repro.core.chains.extract_transitions`) under a workload shape
and writes every (state, actor, operation) cost in the symbolic basis

``cost = u + s·S + p·(P) + n·N + np·(N·P)``

with integer coefficients.  The extraction counts messages per cost
class (``1``, ``S + 1``, ``P + 1``), and the counts are affine in ``N``,
so the coefficients follow exactly — e.g. Write-Through's ``S + 2`` is
``(u=2, s=1)``, Dragon's ``N (P + 1)`` is ``(n=1, np=1)``.  Identical
costs collapse into one *trace class*, yielding the protocol's finite
trace set with symbolic costs — Table-4.1-style summaries for all
protocols, not just Write-Through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from .chains import deviation_groups, extract_transitions
from .parameters import Deviation, WorkloadParams

__all__ = ["TraceClass", "discover_traces", "format_trace_table"]


@dataclass(frozen=True)
class TraceClass:
    """One member of the protocol's finite trace set TR.

    The symbolic cost is ``units + s_coef*S + p_coef*P + n_coef*N +
    np_coef*N*P`` with integer coefficients.
    """

    kind: str
    units: int
    s_coef: int
    p_coef: int
    n_coef: int
    np_coef: int

    def cost(self, S: float, P: float, N: int) -> float:
        """Evaluate the symbolic cost."""
        return (self.units + self.s_coef * S + self.p_coef * P
                + self.n_coef * N + self.np_coef * N * P)

    def describe(self) -> str:
        """Human-readable cost expression, e.g. ``'2S + N + 5'``."""
        parts: List[str] = []
        for coef, sym in ((self.np_coef, "NP"), (self.s_coef, "S"),
                          (self.p_coef, "P"), (self.n_coef, "N")):
            if coef == 1:
                parts.append(sym)
            elif coef:
                parts.append(f"{coef}{sym}")
        if self.units or not parts:
            parts.append(str(self.units))
        return " + ".join(parts)


def discover_traces(
    protocol: str,
    deviation: Deviation = Deviation.READ,
    a: int = 2,
    beta: int = 2,
    include_ejects: bool = False,
) -> FrozenSet[TraceClass]:
    """Enumerate the protocol's finite trace set under a workload shape.

    Args:
        protocol: registry name (paper protocols and extensions).
        deviation: which actor structure to explore (READ/WRITE/MAC).
        a: number of disturbing clients to model.
        beta: number of activity centers for the MAC deviation.
        include_ejects: also explore eject operations (Section 6).

    Returns:
        the set of trace classes — every ``(operation kind, symbolic
        cost)`` reachable from the initial state.  Probabilities play no
        role here (any positive rate reaches the same closure), so nominal
        rates are used internally.
    """
    # nominal rates only shape which (actor, kind) pairs are possible.
    params = WorkloadParams(N=5, p=0.2, a=a, sigma=0.1 if a else 0.0,
                            xi=0.1 if a else 0.0, beta=beta,
                            S=100.0, P=30.0)
    layout = tuple(
        (g.size, g.kinds + (("eject",) if include_ejects else ()))
        for g in deviation_groups(params, deviation)
    )
    # the message counts are affine in N: read them at two sizes
    low, high = (extract_transitions(protocol, n, layout) for n in (5, 6))

    classes: set = set()
    for state, steps in low.table.items():
        for step, upper in zip(steps, high.table[state]):
            kind, units = step[3], step[4]
            slope = [b - a for a, b in zip(units, upper[4])]
            ones, ui, params = (u - 5 * d for u, d in zip(units, slope))
            if slope[1]:
                raise RuntimeError(
                    f"{protocol}: {kind} in state {state} moves a copy "
                    "per client, outside the symbolic basis"
                )
            classes.add(TraceClass(kind, ones + ui + params, ui, params,
                                   sum(slope), slope[2]))
    return frozenset(classes)


def format_trace_table(protocol: str,
                       traces: FrozenSet[TraceClass]) -> str:
    """Render a trace set as a Section 4.1-style table."""
    lines = [f"trace set TR for {protocol} "
             f"({len(traces)} classes):",
             f"{'kind':>7}  cost"]
    ordered = sorted(traces, key=lambda t: (t.kind, t.cost(100.0, 30.0, 5)))
    for tr in ordered:
        lines.append(f"{tr.kind:>7}  {tr.describe()}")
    return "\n".join(lines)
