"""Closed-form steady-state ``acc`` expressions (paper eqns. (3)-(5), Table 6).

The paper derives the Write-Through expressions explicitly and tabulates the
rest in Table 6 (unreadable in the available scan; see DESIGN.md).  This
module provides:

* the paper's Write-Through formulas for all three deviations
  (eqns. (3), (4), (5)) and the trace probabilities behind them;
* closed forms we derived for Write-Through-V (all deviations), Dragon and
  Firefly (all deviations), and Berkeley, Synapse and Illinois under read
  disturbance, using the same repeated-independent-trials arguments as the
  paper's Section 4.3;
* ideal-workload formulas for every protocol (Section 5.1 bullets).

Every expression is vectorized over ``p`` and the disturbance parameter and
is unit-tested against the exact Markov evaluation of
:mod:`repro.core.chains` across random parameter draws.  Write-Once (all
deviations) and Berkeley/Synapse/Illinois under write disturbance and
multiple activity centers have no tractable product-form expression under
our reconstruction; use :func:`repro.core.chains.markov_acc` for them.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

import numpy as np

from .parameters import Deviation, WorkloadParams

__all__ = [
    "write_through_trace_probabilities",
    "acc_write_through_rd",
    "acc_write_through_wd",
    "acc_write_through_mac",
    "acc_write_through_v_rd",
    "acc_write_through_v_wd",
    "acc_write_through_v_mac",
    "acc_berkeley_rd",
    "acc_synapse_rd",
    "acc_illinois_rd",
    "acc_dragon",
    "acc_firefly",
    "acc_sc_abd_rd",
    "acc_sc_abd_wd",
    "acc_sc_abd_mac",
    "ideal_acc",
    "closed_form_acc",
    "has_closed_form",
    "weighted_quorum_acc",
]

ArrayLike = Union[float, np.ndarray]


def _div(num: ArrayLike, den: ArrayLike) -> ArrayLike:
    """Elementwise ``num / den`` with the convention ``0 / 0 = 0``.

    All closed-form quotients carry the denominator's zero as a factor of
    the numerator (e.g. ``a*sigma*p / (p + sigma)`` vanishes when
    ``p = sigma = 0``), so the convention realizes the correct limit.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.divide(num, den, out=np.zeros_like(num * den, dtype=float),
                    where=den != 0)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Write-Through (paper Section 4.3)
# ---------------------------------------------------------------------------


def write_through_trace_probabilities(
    params: WorkloadParams, deviation: Deviation
) -> Dict[str, float]:
    """The steady-state trace probabilities ``pi_1 .. pi_6`` (Section 4.3).

    Sequencer traces ``tr5``/``tr6`` have probability zero in all three
    deviations (only clients act).  The probabilities sum to one.
    """
    p = params.p
    if deviation is Deviation.READ:
        a, s = params.a, params.sigma
        r = 1.0 - p - a * s
        pi1 = _div(r * r, 1.0 - a * s) + a * _div(s * s, p + s)
        pi2 = _div(p * r, 1.0 - a * s) + a * _div(s * p, p + s)
        pi3 = _div(p * r, 1.0 - a * s)
        pi4 = _div(p * p, 1.0 - a * s)
    elif deviation is Deviation.WRITE:
        a, x = params.a, params.xi
        r = 1.0 - p - a * x
        pi1 = r * r
        pi2 = (p + a * x) * r
        pi3 = p * r
        pi4 = p * (p + a * x) + a * x
    else:
        b = params.beta
        D = 1.0 + (b - 1.0) * p
        pi1 = _div((1.0 - p) ** 2, D)
        pi2 = _div(b * p * (1.0 - p), D)
        pi3 = _div(p * (1.0 - p), D)
        pi4 = _div(b * p * p, D)
    return {"tr1": pi1, "tr2": pi2, "tr3": pi3, "tr4": pi4,
            "tr5": 0.0, "tr6": 0.0}


def acc_write_through_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                         S: float, P: float, N: int) -> ArrayLike:
    """Paper eqn. (3): Write-Through ``acc`` under read disturbance."""
    r = 1.0 - p - a * sigma
    term_read = _div(p * r, 1.0 - a * sigma) + a * _div(sigma * p, p + sigma)
    return term_read * (S + 2.0) + p * (P + N)


def acc_write_through_wd(p: ArrayLike, xi: ArrayLike, a: int,
                         S: float, P: float, N: int) -> ArrayLike:
    """Paper eqn. (4): Write-Through ``acc`` under write disturbance."""
    w = p + a * xi
    return w * (1.0 - w) * (S + 2.0) + w * (P + N)


def acc_write_through_mac(p: ArrayLike, beta: int,
                          S: float, P: float, N: int) -> ArrayLike:
    """Paper eqn. (5): Write-Through ``acc``, multiple activity centers."""
    D = 1.0 + (beta - 1.0) * p
    return _div(beta * p * (1.0 - p), D) * (S + 2.0) + p * (P + N)


# ---------------------------------------------------------------------------
# Write-Through-V (derived; write cost P+N+2 from VALID, P+S+N+2 from INVALID)
# ---------------------------------------------------------------------------


def acc_write_through_v_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                           S: float, P: float, N: int) -> ArrayLike:
    """Write-Through-V under read disturbance.

    The activity center's copy is always valid in steady state (its own
    writes keep it valid, nobody else writes), so only the disturbers'
    read misses add to the write cost ``p (P + N + 2)``.
    """
    return p * (P + N + 2.0) + a * _div(sigma * p, p + sigma) * (S + 2.0)


def acc_write_through_v_wd(p: ArrayLike, xi: ArrayLike, a: int,
                           S: float, P: float, N: int) -> ArrayLike:
    """Write-Through-V under write disturbance.

    The activity center is invalid exactly when the globally last event
    was a disturbing write (probability ``a xi``); a disturber is valid
    only when the last write anywhere was its own (``xi / (p + a xi)``).
    An invalid writer's grant carries the user information (+``S``).
    """
    r = 1.0 - p - a * xi
    ac_invalid = a * xi
    dist_invalid = 1.0 - _div(np.asarray(xi, dtype=float), p + a * xi)
    return (
        (p + a * xi) * (P + N + 2.0)
        + S * (p * ac_invalid + a * xi * dist_invalid)
        + r * ac_invalid * (S + 2.0)
    )


def acc_write_through_v_mac(p: ArrayLike, beta: int,
                            S: float, P: float, N: int) -> ArrayLike:
    """Write-Through-V, multiple activity centers.

    A center is invalid iff the last event touching its state was another
    center's write: ``(beta - 1) p / (1 + (beta - 1) p)``.
    """
    D = 1.0 + (beta - 1.0) * p
    inv = _div((beta - 1.0) * p, D)
    return (
        (1.0 - p) * inv * (S + 2.0)
        + p * (P + N + 2.0)
        + p * inv * S
    )


# ---------------------------------------------------------------------------
# Berkeley / Synapse / Illinois under read disturbance (derived)
# ---------------------------------------------------------------------------


def acc_berkeley_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                    S: float, P: float, N: int) -> ArrayLike:
    """Berkeley under read disturbance.

    In steady state the activity center owns the object (ownership moved on
    its first write and no one else writes).  Its write costs ``N`` exactly
    when a disturber read downgraded it to SHARED-DIRTY since the previous
    write (``a sigma / (p + a sigma)``); a disturber's read misses when the
    last of {activity-center write, its own read} was the write
    (``p / (p + sigma)``).
    """
    own_write = p * _div(a * np.asarray(sigma, float) * N, p + a * sigma)
    dist_miss = a * _div(sigma * p, p + sigma) * (S + 2.0)
    return own_write + dist_miss


def acc_synapse_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                   S: float, P: float, N: int) -> ArrayLike:
    """Synapse under read disturbance.

    Terms, in order: ownership (re-)acquisition writes (``S + N + 1``) when
    the center lost DIRTY to a disturber read; the center's own read misses
    — the center is INVALID with probability
    ``a sigma p / ((1 - a sigma)(p + a sigma))``, the stationary mass of the
    embedded {DIRTY, INVALID, VALID} chain (a read on an own DIRTY copy
    keeps it DIRTY, so INVALID persists under further disturber reads);
    recall + retry disturber misses against the DIRTY center (``2S + 6``);
    plain disturber misses served by a VALID sequencer.
    """
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    r = 1.0 - p - a * sigma
    ac_write = p * _div(a * sigma, p + a * sigma) * (S + N + 1.0)
    ac_invalid = _div(a * sigma * p, (1.0 - a * sigma) * (p + a * sigma))
    ac_read_miss = r * ac_invalid * (S + 2.0)
    dist_dirty = a * sigma * _div(p, p + a * sigma) * (2.0 * S + 6.0)
    dist_plain = _div(
        a * (a - 1.0) * sigma * sigma * p * (S + 2.0),
        (p + sigma) * (p + a * sigma),
    )
    return ac_write + ac_read_miss + dist_dirty + dist_plain


def acc_illinois_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                    S: float, P: float, N: int) -> ArrayLike:
    """Illinois under read disturbance.

    Unlike Synapse the recalled center stays VALID, so the center never
    read-misses and its re-acquisition writes are data-less upgrades
    (``N + 1``); the remote-dirty disturber miss costs ``2S + 4``.
    """
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ac_write = p * _div(a * sigma, p + a * sigma) * (N + 1.0)
    dist_dirty = a * sigma * _div(p, p + a * sigma) * (2.0 * S + 4.0)
    dist_plain = _div(
        a * (a - 1.0) * sigma * sigma * p * (S + 2.0),
        (p + sigma) * (p + a * sigma),
    )
    return ac_write + dist_dirty + dist_plain


# ---------------------------------------------------------------------------
# Update protocols (derived; cost independent of copy states)
# ---------------------------------------------------------------------------


def acc_dragon(p: ArrayLike, disturb: ArrayLike, a: int, S: float, P: float,
               N: int, deviation: Deviation = Deviation.READ) -> ArrayLike:
    """Dragon: every write costs ``N (P + 1)``; reads are free.

    ``disturb`` is ``sigma``/``xi`` for the disturbance deviations and
    ignored for multiple activity centers (total write probability ``p``).
    """
    if deviation is Deviation.WRITE:
        w = p + a * np.asarray(disturb, dtype=float)
    else:
        w = np.asarray(p, dtype=float)
    return w * N * (P + 1.0)


def acc_firefly(p: ArrayLike, disturb: ArrayLike, a: int, S: float, P: float,
                N: int, deviation: Deviation = Deviation.READ) -> ArrayLike:
    """Firefly: every client write costs ``N (P + 1) + 1``; reads are free."""
    if deviation is Deviation.WRITE:
        w = p + a * np.asarray(disturb, dtype=float)
    else:
        w = np.asarray(p, dtype=float)
    return w * (N * (P + 1.0) + 1.0)


# ---------------------------------------------------------------------------
# SC-ABD majority quorums (extension; exact by construction)
# ---------------------------------------------------------------------------


def _fanout(N: int, weights=None) -> Callable[[int], int]:
    """Inter-node messages per SC-ABD phase leg, by node, fault-free.

    Read off the simulator's quorum geometry over nodes ``1 .. N+1``:
    unweighted, :func:`repro.protocols.sc_abd.quorum_fanout`; with vote
    ``weights`` (a mapping or ``(node, weight)`` pairs; unnamed nodes
    weigh 1), the core of a :class:`repro.sim.reconfig.MembershipView`,
    whose members send one leg fewer (their own leg is a free intra-node
    loop).
    """
    # deferred: repro.core loads without the protocol layer, and the
    # simulator's workloads import repro.core.parameters
    if weights is None:
        from ..protocols.sc_abd import quorum_fanout
        return lambda node: quorum_fanout(node, N + 1)
    from ..sim.reconfig import MembershipView
    wmap = {int(n): float(w) for n, w in
            (weights.items() if hasattr(weights, "items") else weights)}
    core = MembershipView(range(1, N + 2), wmap).core()
    return lambda node: len(core) - (node in core)


def _sc_abd_costs(N: int, S: float, P: float) -> Tuple[float, float]:
    """Per-fanout-unit settled costs: read ``S + 2``, write ``P + 4``.

    A read is one two-message round trip per quorum member (query token +
    reply carrying the user information, ``1 + (S + 1)``); a write is two
    round trips (timestamp query/reply, then update carrying the write
    parameters plus ack, ``1 + 1 + (P + 1) + 1``).  Settled operations
    never read-repair (a completed write installed at the whole core),
    so these are exact, not bounds.
    """
    return S + 2.0, P + 4.0


def acc_sc_abd_rd(p: ArrayLike, sigma: ArrayLike, a: int,
                  S: float, P: float, N: int, weights=None) -> ArrayLike:
    """SC-ABD under read disturbance.

    Every operation is distributed (there are no local hits), so ``acc``
    is the workload mix weighted by the per-node quorum fan-out: the
    activity center (node 1, inside the core) pays ``q1`` legs per
    operation and each disturber ``j`` pays ``q_j``.  Optional per-node
    vote ``weights`` reshape every fan-out through the weighted-majority
    core (see :func:`_fanout`); ``None`` is the count majority.
    """
    read_cost, write_cost = _sc_abd_costs(N, S, P)
    fanout = _fanout(N, weights)
    r = 1.0 - p - a * np.asarray(sigma, dtype=float)
    acc = fanout(1) * (np.asarray(p, dtype=float) * write_cost
                       + r * read_cost)
    for j in range(2, a + 2):
        acc = acc + fanout(j) * np.asarray(sigma, float) * read_cost
    if np.ndim(acc) == 0:
        return float(acc)
    return acc


def acc_sc_abd_wd(p: ArrayLike, xi: ArrayLike, a: int,
                  S: float, P: float, N: int, weights=None) -> ArrayLike:
    """SC-ABD under write disturbance (disturbers write instead of read)."""
    read_cost, write_cost = _sc_abd_costs(N, S, P)
    fanout = _fanout(N, weights)
    r = 1.0 - p - a * np.asarray(xi, dtype=float)
    acc = fanout(1) * (np.asarray(p, dtype=float) * write_cost
                       + r * read_cost)
    for j in range(2, a + 2):
        acc = acc + fanout(j) * np.asarray(xi, float) * write_cost
    if np.ndim(acc) == 0:
        return float(acc)
    return acc


def acc_sc_abd_mac(p: ArrayLike, beta: int,
                   S: float, P: float, N: int, weights=None) -> ArrayLike:
    """SC-ABD, multiple activity centers (centers ``1 .. beta``)."""
    read_cost, write_cost = _sc_abd_costs(N, S, P)
    fanout = _fanout(N, weights)
    p = np.asarray(p, dtype=float)
    acc = np.zeros_like(p)
    for c in range(1, beta + 1):
        acc = acc + fanout(c) * ((1.0 - p) / beta * read_cost
                         + p / beta * write_cost)
    if np.ndim(acc) == 0:
        return float(acc)
    return acc


# ---------------------------------------------------------------------------
# Ideal workload (Section 5.1 bullets) and the dispatch table
# ---------------------------------------------------------------------------


def ideal_acc(protocol: str, p: ArrayLike, S: float, P: float,
              N: int) -> ArrayLike:
    """Ideal-workload ``acc`` for any protocol (Section 5.1).

    Synapse, Write-Once, Illinois and Berkeley execute writes locally once
    ownership settles, so their ideal ``acc`` is 0; Write-Through pays
    ``p((1-p)(S+2) + P + N)``; Write-Through-V pays ``p(P+N+2)``; Dragon
    and Firefly pay ``p N (P+1)`` and ``p (N (P+1) + 1)``.
    """
    p = np.asarray(p, dtype=float)
    if protocol == "write_through":
        return p * ((1.0 - p) * (S + 2.0) + P + N)
    if protocol == "write_through_v":
        return p * (P + N + 2.0)
    if protocol in ("write_once", "synapse", "illinois", "berkeley"):
        out = np.zeros_like(p)
        return float(out) if out.ndim == 0 else out
    if protocol == "dragon":
        return p * N * (P + 1.0)
    if protocol == "firefly":
        return p * (N * (P + 1.0) + 1.0)
    if protocol == "sc_abd":
        # only the activity center acts; it sits inside the core quorum
        # and pays full quorum rounds for every operation (no hits).
        read_cost, write_cost = _sc_abd_costs(N, S, P)
        out = _fanout(N)(1) * ((1.0 - p) * read_cost + p * write_cost)
        return float(out) if np.ndim(out) == 0 else out
    raise KeyError(f"unknown protocol {protocol!r}")


#: closed forms registry: (protocol, deviation) -> callable(params) -> acc
_FORMS: Dict[Tuple[str, Deviation], Callable[[WorkloadParams], float]] = {
    ("write_through", Deviation.READ): lambda w: acc_write_through_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("write_through", Deviation.WRITE): lambda w: acc_write_through_wd(
        w.p, w.xi, w.a, w.S, w.P, w.N),
    ("write_through", Deviation.MULTIPLE_ACTIVITY_CENTERS):
        lambda w: acc_write_through_mac(w.p, w.beta, w.S, w.P, w.N),
    ("write_through_v", Deviation.READ): lambda w: acc_write_through_v_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("write_through_v", Deviation.WRITE): lambda w: acc_write_through_v_wd(
        w.p, w.xi, w.a, w.S, w.P, w.N),
    ("write_through_v", Deviation.MULTIPLE_ACTIVITY_CENTERS):
        lambda w: acc_write_through_v_mac(w.p, w.beta, w.S, w.P, w.N),
    ("berkeley", Deviation.READ): lambda w: acc_berkeley_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("synapse", Deviation.READ): lambda w: acc_synapse_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("illinois", Deviation.READ): lambda w: acc_illinois_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("dragon", Deviation.READ): lambda w: acc_dragon(
        w.p, w.sigma, w.a, w.S, w.P, w.N, Deviation.READ),
    ("dragon", Deviation.WRITE): lambda w: acc_dragon(
        w.p, w.xi, w.a, w.S, w.P, w.N, Deviation.WRITE),
    ("dragon", Deviation.MULTIPLE_ACTIVITY_CENTERS): lambda w: acc_dragon(
        w.p, 0.0, 0, w.S, w.P, w.N, Deviation.MULTIPLE_ACTIVITY_CENTERS),
    ("firefly", Deviation.READ): lambda w: acc_firefly(
        w.p, w.sigma, w.a, w.S, w.P, w.N, Deviation.READ),
    ("firefly", Deviation.WRITE): lambda w: acc_firefly(
        w.p, w.xi, w.a, w.S, w.P, w.N, Deviation.WRITE),
    ("firefly", Deviation.MULTIPLE_ACTIVITY_CENTERS): lambda w: acc_firefly(
        w.p, 0.0, 0, w.S, w.P, w.N, Deviation.MULTIPLE_ACTIVITY_CENTERS),
    ("sc_abd", Deviation.READ): lambda w: acc_sc_abd_rd(
        w.p, w.sigma, w.a, w.S, w.P, w.N),
    ("sc_abd", Deviation.WRITE): lambda w: acc_sc_abd_wd(
        w.p, w.xi, w.a, w.S, w.P, w.N),
    ("sc_abd", Deviation.MULTIPLE_ACTIVITY_CENTERS):
        lambda w: acc_sc_abd_mac(w.p, w.beta, w.S, w.P, w.N),
}


def has_closed_form(protocol: str, deviation: Deviation) -> bool:
    """Whether a closed form is available for this combination."""
    return (protocol, deviation) in _FORMS


def closed_form_acc(protocol: str, params: WorkloadParams,
                    deviation: Deviation) -> float:
    """Evaluate the closed form for ``(protocol, deviation)``.

    Raises:
        KeyError: when no closed form exists (use
            :func:`repro.core.chains.markov_acc` instead).
    """
    try:
        form = _FORMS[(protocol, deviation)]
    except KeyError:
        raise KeyError(
            f"no closed form for {protocol!r} under {deviation.value}; "
            "use markov_acc"
        ) from None
    return float(form(params))


def weighted_quorum_acc(params: WorkloadParams, deviation: Deviation,
                        weights) -> float:
    """The SC-ABD closed form under per-node vote ``weights``.

    The weighted-majority extension reshapes every quorum fan-out (see
    :func:`_fanout`), so the weighted prediction lives outside the
    unweighted :data:`_FORMS` dispatch; ``weights`` is a mapping or an
    iterable of ``(node, weight)`` pairs.
    """
    w = params
    if deviation is Deviation.READ:
        return float(acc_sc_abd_rd(w.p, w.sigma, w.a, w.S, w.P, w.N,
                                   weights=weights))
    if deviation is Deviation.WRITE:
        return float(acc_sc_abd_wd(w.p, w.xi, w.a, w.S, w.P, w.N,
                                   weights=weights))
    if deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS:
        return float(acc_sc_abd_mac(w.p, w.beta, w.S, w.P, w.N,
                                    weights=weights))
    raise KeyError(
        f"no weighted quorum closed form under {deviation.value}"
    )
