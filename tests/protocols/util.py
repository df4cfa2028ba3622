"""Shared driver for protocol tests.

``run_scripted`` executes a scripted operation sequence on a fresh
:class:`DSMSystem`, settling the network between operations so every
operation is an atomic trial — exactly the analytic model's execution
model.  ``kernel_costs`` replays the same sequence through the transitions
extracted for the analytic chains (one singleton group per acting client,
mapped onto clients ``1 ..`` in node order), so the two cost sequences
must agree; ``assert_equivalent`` runs both and compares.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.chains import KINDS, extract_transitions, price
from repro.sim import DSMSystem

S_DEFAULT = 100.0
P_DEFAULT = 30.0


def run_scripted(protocol: str, N: int, ops: Sequence[Tuple[int, str]],
                 S: float = S_DEFAULT, P: float = P_DEFAULT):
    """Run ``(node, kind)`` operations sequentially; return (system, costs)."""
    system = DSMSystem(protocol, N=N, M=1, S=S, P=P)
    costs: List[float] = []
    for node, kind in ops:
        op = system.submit(node, kind)
        system.settle()
        costs.append(system.metrics.op(op.op_id).cost)
    return system, costs


def kernel_costs(protocol: str, N: int, ops: Sequence[Tuple[int, str]],
                 S: float = S_DEFAULT, P: float = P_DEFAULT) -> List[float]:
    """Replay the same script through the extracted transition table.

    Each acting client becomes its own singleton group, so arbitrary
    (asymmetric) scripts can be replayed exactly.
    """
    actors = sorted({node for node, _ in ops})
    group_of = {node: i for i, node in enumerate(actors)}
    extraction = extract_transitions(protocol, N,
                                     ((1, KINDS),) * len(actors))
    state = extraction.initial
    costs: List[float] = []
    for node, kind in ops:
        g = group_of[node]
        ((member_state, _one),) = state[0][g]
        units, state = extraction.step(state, g, member_state, kind)
        costs.append(price(units, S, P))
    return costs


def assert_equivalent(protocol: str, N: int, ops: Sequence[Tuple[int, str]],
                      S: float = S_DEFAULT, P: float = P_DEFAULT):
    """Simulator and extracted chain charge identical per-operation costs."""
    system, sim_costs = run_scripted(protocol, N, ops, S, P)
    system.check_coherence()
    analytic = kernel_costs(protocol, N, ops, S, P)
    assert sim_costs == analytic, (
        f"{protocol}: sim={sim_costs} chain={analytic} ops={list(ops)}"
    )
    return system
