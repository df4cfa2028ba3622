"""Generic steady-state Markov engine for the analytic model (Section 4.3).

The paper treats the operation stream as repeated independent trials over a
finite event sample space; the protocol state evolves as a finite Markov
chain driven by those trials, and ``acc`` is the stationary expectation of
the per-trial communication cost.  This module provides the generic part:

* :func:`enumerate_chain` — breadth-first enumeration of the reachable state
  space from a transition generator;
* :func:`stationary_distribution` — dense linear solve of ``pi P = pi``,
  ``sum(pi) = 1`` (numpy; the reduced chains have at most a few hundred
  states, so a dense solve is both exact and fast);
* :func:`expected_cost` — ``acc = sum_s pi(s) * sum_e prob(e) cost(e | s)``,
  the paper's eqn. (1) evaluated against the chain instead of a hand-derived
  trace list.

The protocol-specific transition generators live in
:mod:`repro.core.chains`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Transition",
    "enumerate_chain",
    "stationary_distribution",
    "expected_cost",
    "solve_chain",
]

#: one outgoing transition: (probability, communication cost, next state)
Transition = Tuple[float, float, Hashable]

TransitionFn = Callable[[Hashable], Sequence[Transition]]


def enumerate_chain(
    initial: Hashable,
    transitions: TransitionFn,
    max_states: int = 200_000,
) -> Tuple[List[Hashable], Dict[Hashable, int]]:
    """Enumerate all states reachable from ``initial``.

    Returns the state list (index order = discovery order) and the inverse
    index map.  Raises ``RuntimeError`` if the reduced chain exceeds
    ``max_states`` — reduced chains are small by construction, so hitting
    the cap indicates a bug in the chain (e.g. unbounded counters).
    """
    states: List[Hashable] = [initial]
    index: Dict[Hashable, int] = {initial: 0}
    frontier = [initial]
    while frontier:
        next_frontier: List[Hashable] = []
        for s in frontier:
            for _prob, _cost, t in transitions(s):
                if t not in index:
                    if len(states) >= max_states:
                        raise RuntimeError(
                            f"chain exceeded {max_states} states; "
                            "the state space is not properly reduced"
                        )
                    index[t] = len(states)
                    states.append(t)
                    next_frontier.append(t)
        frontier = next_frontier
    return states, index


def _transition_matrix(
    states: Sequence[Hashable],
    index: Dict[Hashable, int],
    transitions: TransitionFn,
    tol: float = 1e-9,
) -> np.ndarray:
    n = len(states)
    P = np.zeros((n, n))
    for i, s in enumerate(states):
        row_sum = 0.0
        for prob, _cost, t in transitions(s):
            if prob < -tol:
                raise ValueError(f"negative transition probability from {s!r}")
            P[i, index[t]] += prob
            row_sum += prob
        if abs(row_sum - 1.0) > 1e-7:
            raise ValueError(
                f"transition probabilities from {s!r} sum to {row_sum}, "
                "expected 1 (the chain must enumerate the full sample space)"
            )
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve ``pi P = pi`` with ``sum(pi) = 1`` by a dense linear solve.

    The reduced chains driven by an ergodic trial process are unichain
    (one recurrent class, possibly with transient start-up states), so the
    linear system ``(P^T - I) pi = 0`` with the normalization row has a
    unique solution.  Where that solve is singular or ill-conditioned —
    the measure-zero parameter corners (e.g. ``p = 0``) where the chain
    decomposes, or a transient start-up state that drains at a rate of
    the order of round-off — the long-run distribution from the initial
    state is computed class by class instead.
    """
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = None
    try:
        candidate = np.linalg.solve(A, b)
        if np.all(np.isfinite(candidate)) and candidate.min() > -1e-8:
            pi = candidate
    except np.linalg.LinAlgError:
        pi = None
    if pi is None:
        pi = _limit_from(P)
    # clean tiny negative round-off and renormalize.
    pi = np.where(pi < 0, 0.0, pi)
    total = pi.sum()
    if total <= 0:
        raise RuntimeError("stationary solve failed (zero mass)")
    return pi / total


def _limit_from(P: np.ndarray, start: int = 0) -> np.ndarray:
    """The long-run distribution of the chain started in ``start``.

    Used when the direct solve is singular or ill-conditioned: degenerate
    parameter corners split the chain into several closed classes, or
    leave transient states whose escape probability is of the order of
    round-off.  Each closed class gets its own stationary distribution,
    weighted by the probability of absorption into it from ``start``;
    transient states get no mass, however slowly they drain.
    """
    n = P.shape[0]
    # reach[i, j]: j is reachable from i (transitive closure by squaring)
    reach = (P > 0) | np.eye(n, dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (wider == reach).all():
            break
        reach = wider
    # i is recurrent iff everything it reaches reaches back
    recurrent = ~(reach & ~reach.T).any(axis=1)
    classes = []
    for i in np.flatnonzero(recurrent):
        if not any(reach[i, c[0]] for c in classes):
            classes.append(np.flatnonzero(reach[i]))
    transient = np.flatnonzero(~recurrent)
    if recurrent[start]:
        weights = [float(reach[start, c[0]]) for c in classes]
    else:
        # absorption probabilities: (I - Q) X = R over transient states
        Q = P[np.ix_(transient, transient)]
        R = np.stack([P[np.ix_(transient, c)].sum(axis=1)
                      for c in classes], axis=1)
        X = np.linalg.solve(np.eye(len(transient)) - Q, R)
        weights = list(X[np.searchsorted(transient, start)])
    pi = np.zeros(n)
    for c, w in zip(classes, weights):
        A = P[np.ix_(c, c)].T - np.eye(len(c))
        A[-1, :] = 1.0
        b = np.zeros(len(c))
        b[-1] = 1.0
        pi[c] += w * np.linalg.solve(A, b)
    return pi


def expected_cost(
    states: Sequence[Hashable],
    pi: np.ndarray,
    transitions: TransitionFn,
) -> float:
    """``acc = sum_s pi(s) sum_e prob(e) cost(e | s)`` (paper eqn. (1))."""
    acc = 0.0
    for i, s in enumerate(states):
        if pi[i] == 0.0:
            continue
        per_state = 0.0
        for prob, cost, _t in transitions(s):
            per_state += prob * cost
        acc += pi[i] * per_state
    return acc


def solve_chain(initial: Hashable, transitions: TransitionFn) -> float:
    """Convenience: enumerate, solve and return the steady-state cost.

    For chains with transient start-up states (e.g. every copy INVALID at
    time zero) the stationary distribution automatically assigns them zero
    mass, exactly matching the paper's warm-up discard.
    """
    states, index = enumerate_chain(initial, transitions)
    P = _transition_matrix(states, index, transitions)
    pi = stationary_distribution(P)
    return expected_cost(states, pi, transitions)
