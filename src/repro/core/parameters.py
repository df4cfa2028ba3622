"""Workload and system parameters of the analytic model (paper Section 4.2, Table 5).

The paper characterizes a synthetic workload for **one shared object** with
five workload parameters plus three system/cost parameters:

========  =====================================================================
``N``     number of clients (the system has ``N + 1`` nodes; node ``N + 1`` is
          the *sequencer*)
``a``     number of clients, other than the activity center, that issue the
          disturbing operations (``a < N``)
``beta``  number of clients declared as activity centers (multiple activity
          centers deviation)
``p``     steady-state probability that an operation slot is a *write* issued
          by the activity center (or, for the multiple-activity-centers
          deviation, the **total** write probability across the ``beta``
          centers)
``sigma`` per-client probability of a disturbing *read* (read disturbance)
``xi``    per-client probability of a disturbing *write* (write disturbance)
``S``     communication cost of transmitting the user-information part of a
          copy (a whole-copy transfer costs ``S + 1`` including the token)
``P``     communication cost of transmitting write-operation parameters (a
          parameter-carrying message costs ``P + 1`` including the token)
========  =====================================================================

Every operation slot is an independent trial; the events of a deviation's
sample space are mutually exclusive and exhaustive, so the probabilities must
form a simplex:

* read disturbance: ``P(Ar) = 1 - p - a * sigma >= 0``
* write disturbance: ``P(Ar) = 1 - p - a * xi >= 0``
* multiple activity centers: each of the ``beta`` centers reads with
  probability ``(1 - p) / beta`` and writes with probability ``p / beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple

from ..util import field_kwargs


__all__ = [
    "Deviation",
    "WorkloadParams",
    "feasible_sigma_max",
    "feasible_xi_max",
    "object_access_probs",
    "parameter_grid",
]


class Deviation(Enum):
    """The three deviations from the ideal workload analyzed by the paper.

    The *ideal* workload (each object accessed by exactly one node) is the
    degenerate case of any deviation with ``a = 0`` / ``sigma = 0`` /
    ``xi = 0`` / ``beta = 1``.
    """

    #: ``a`` clients besides the activity center issue read operations.
    READ = "read_disturbance"
    #: ``a`` clients besides the activity center issue write operations.
    WRITE = "write_disturbance"
    #: ``beta`` symmetric activity centers share the object.
    MULTIPLE_ACTIVITY_CENTERS = "multiple_activity_centers"

    @property
    def short_name(self) -> str:
        """Compact label used in benchmark tables (``RD``/``WD``/``MAC``)."""
        return {
            Deviation.READ: "RD",
            Deviation.WRITE: "WD",
            Deviation.MULTIPLE_ACTIVITY_CENTERS: "MAC",
        }[self]


#: short deviation names (the CLI's ``--deviation`` vocabulary)
DEVIATION_ALIASES = {
    "read": Deviation.READ,
    "write": Deviation.WRITE,
    "mac": Deviation.MULTIPLE_ACTIVITY_CENTERS,
}


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class WorkloadParams:
    """Immutable bundle of the model parameters (paper Table 5).

    Only the parameters relevant to the selected deviation are used by a
    given formula; irrelevant ones may be left at their defaults.

    Args:
        N: number of clients (``N + 1`` nodes in total).
        p: activity-center write probability (total write probability for the
            multiple-activity-centers deviation).
        a: number of disturbing clients (read/write disturbance deviations).
        sigma: per-client disturbing-read probability.
        xi: per-client disturbing-write probability.
        beta: number of activity centers (multiple-activity-centers
            deviation).
        S: cost of a user-information (whole copy) transfer, excluding the
            token.
        P: cost of a write-parameter transfer, excluding the token.
        hot_set: optional working-set size — with ``hot_fraction``, the
            first ``hot_set`` objects receive ``hot_fraction`` of the
            accesses (uniformly within the hot set) and the remaining
            objects split the rest.  Both knobs must be given together;
            ``None`` (the default) keeps the paper's uniform object
            selection bit-identical.  Drives the bounded-replica-cache
            study (:mod:`repro.sim.cache`): a cache of capacity ``C >=
            hot_set`` captures almost all accesses.
        hot_fraction: probability mass on the hot set, in ``(0, 1]``.

    Raises:
        ValueError: if any constraint of Section 4.2 is violated (negative
            sizes, probabilities outside ``[0, 1]``, infeasible simplex such
            as ``p + a * sigma > 1``, or a half-specified hot set).
    """

    N: int
    p: float
    a: int = 0
    sigma: float = 0.0
    xi: float = 0.0
    beta: int = 1
    S: float = 100.0
    P: float = 30.0
    hot_set: Optional[int] = None
    hot_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (0 <= self.a < max(self.N, 1) + 1):
            raise ValueError(f"a must satisfy 0 <= a <= N, got a={self.a}, N={self.N}")
        if self.a > self.N:
            raise ValueError(f"a must be <= N, got a={self.a}, N={self.N}")
        if not (1 <= self.beta <= self.N):
            raise ValueError(f"beta must satisfy 1 <= beta <= N, got {self.beta}")
        _check_probability("p", self.p)
        _check_probability("sigma", self.sigma)
        _check_probability("xi", self.xi)
        if self.S < 0 or self.P < 0:
            raise ValueError("S and P must be non-negative")
        # Simplex feasibility for the two disturbance deviations.  A params
        # bundle is allowed to be infeasible for a deviation it is not used
        # with, so we only reject combinations that are infeasible for every
        # deviation they parameterize.
        tol = 1e-12
        if self.sigma > 0 and self.p + self.a * self.sigma > 1.0 + tol:
            raise ValueError(
                f"infeasible read disturbance: p + a*sigma = "
                f"{self.p + self.a * self.sigma:.6f} > 1"
            )
        if self.xi > 0 and self.p + self.a * self.xi > 1.0 + tol:
            raise ValueError(
                f"infeasible write disturbance: p + a*xi = "
                f"{self.p + self.a * self.xi:.6f} > 1"
            )
        if (self.hot_set is None) != (self.hot_fraction is None):
            raise ValueError(
                "hot_set and hot_fraction must be given together "
                f"(got hot_set={self.hot_set!r}, "
                f"hot_fraction={self.hot_fraction!r})"
            )
        if self.hot_set is not None:
            if self.hot_set < 1:
                raise ValueError(
                    f"hot_set must be at least 1, got {self.hot_set}"
                )
            if not (0.0 < self.hot_fraction <= 1.0):
                raise ValueError(
                    f"hot_fraction must lie in (0, 1], "
                    f"got {self.hot_fraction!r}"
                )

    # ------------------------------------------------------------------
    # Derived event probabilities (Section 4.2)
    # ------------------------------------------------------------------

    @property
    def read_prob_activity_center_rd(self) -> float:
        """``P(Ar) = 1 - p - a*sigma`` under read disturbance."""
        return max(0.0, 1.0 - self.p - self.a * self.sigma)

    @property
    def read_prob_activity_center_wd(self) -> float:
        """``P(Ar) = 1 - p - a*xi`` under write disturbance."""
        return max(0.0, 1.0 - self.p - self.a * self.xi)

    @property
    def per_center_write_prob(self) -> float:
        """``P(Aw_k) = p / beta`` for each of the ``beta`` activity centers."""
        return self.p / self.beta

    @property
    def per_center_read_prob(self) -> float:
        """``P(Ar_k) = (1 - p) / beta`` for each activity center."""
        return (1.0 - self.p) / self.beta

    # ------------------------------------------------------------------
    # Cost classes (Section 4.1)
    # ------------------------------------------------------------------

    @property
    def token_cost(self) -> float:
        """Cost of an inter-node message carrying only the token (= 1)."""
        return 1.0

    @property
    def ui_message_cost(self) -> float:
        """Cost of a token + user-information message (= ``S + 1``)."""
        return self.S + 1.0

    @property
    def params_message_cost(self) -> float:
        """Cost of a token + write-parameters message (= ``P + 1``)."""
        return self.P + 1.0

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    def with_(self, **changes) -> "WorkloadParams":
        """Return a copy with the given fields replaced (validates again)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """A plain-JSON dict (sweep-engine cache keys, worker payloads).

        Values are canonicalized (``S=100`` and ``S=100.0`` serialize
        identically) so the dict is safe to hash for cache keys.
        """
        data = {
            "N": int(self.N), "p": float(self.p), "a": int(self.a),
            "sigma": float(self.sigma), "xi": float(self.xi),
            "beta": int(self.beta), "S": float(self.S), "P": float(self.P),
        }
        # pay-for-what-you-use: the hot-set knobs appear only when set, so
        # every pre-existing cache key stays byte-identical.
        if self.hot_set is not None:
            data["hot_set"] = int(self.hot_set)
            data["hot_fraction"] = float(self.hot_fraction)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadParams":
        """Rebuild a bundle from :meth:`to_dict` output (validates again).

        Unknown keys raise ``ValueError`` instead of being silently
        dropped.
        """
        return cls(**field_kwargs(cls, data, "WorkloadParams",
                                  hot_set=int, hot_fraction=float))

    def event_probabilities(self, deviation: Deviation) -> dict:
        """Map event labels to probabilities for ``deviation``.

        The returned labels follow the paper: ``Ar``/``Aw`` for the activity
        center, ``Or``/``Ow`` for a *single* disturbing client (multiply by
        ``a`` for the aggregate), ``Ar_k``/``Aw_k`` per activity center for
        the multiple-activity-centers deviation.
        """
        if deviation is Deviation.READ:
            return {
                "Ar": self.read_prob_activity_center_rd,
                "Aw": self.p,
                "Or": self.sigma,
            }
        if deviation is Deviation.WRITE:
            return {
                "Ar": self.read_prob_activity_center_wd,
                "Aw": self.p,
                "Ow": self.xi,
            }
        return {
            "Ar_k": self.per_center_read_prob,
            "Aw_k": self.per_center_write_prob,
        }


def object_access_probs(
    M: int, hot_set: Optional[int], hot_fraction: Optional[float]
) -> Optional[List[float]]:
    """Per-object access probabilities for the hot-set workload skew.

    Objects ``1 .. hot_set`` split ``hot_fraction`` uniformly; objects
    ``hot_set + 1 .. M`` split the remainder.  Returns ``None`` for the
    paper's uniform selection (``hot_set is None``) so callers can keep
    the uniform sampling path bit-identical.  The same distribution feeds
    the simulator's object sampler and the closed-form miss-ratio model
    (:mod:`repro.core.cache_model`), which is what makes the two
    comparable.

    Raises:
        ValueError: if ``hot_set > M``, or ``hot_set == M`` with
            ``hot_fraction < 1`` (there is no cold object to carry the
            leftover mass).
    """
    if hot_set is None:
        return None
    if hot_set > M:
        raise ValueError(
            f"hot_set must be <= M, got hot_set={hot_set}, M={M}"
        )
    cold = M - hot_set
    if cold == 0:
        if hot_fraction < 1.0:
            raise ValueError(
                f"hot_set == M needs hot_fraction == 1, "
                f"got {hot_fraction!r}"
            )
        return [1.0 / M] * M
    hot_p = hot_fraction / hot_set
    cold_p = (1.0 - hot_fraction) / cold
    return [hot_p] * hot_set + [cold_p] * cold


def feasible_sigma_max(p: float, a: int) -> float:
    """Largest feasible ``sigma`` for a given ``p`` and ``a`` (``>= 0``).

    From ``p + a * sigma <= 1``.  Returns ``0`` when ``a == 0``.
    """
    if a <= 0:
        return 0.0
    return max(0.0, (1.0 - p) / a)


def feasible_xi_max(p: float, a: int) -> float:
    """Largest feasible ``xi`` for a given ``p`` and ``a`` (alias of sigma)."""
    return feasible_sigma_max(p, a)


def parameter_grid(
    base: WorkloadParams,
    p_values: Sequence[float],
    disturb_values: Sequence[float],
    deviation: Deviation,
) -> Iterator[Tuple[float, float, WorkloadParams]]:
    """Iterate feasible ``(p, disturb, params)`` tuples over a 2-D grid.

    ``disturb_values`` is interpreted as ``sigma`` for read disturbance, as
    ``xi`` for write disturbance, and ignored (a single pass over
    ``p_values``) for multiple activity centers.  Infeasible grid points
    (violating the probability simplex) are skipped, matching the empty
    cells of the paper's Table 7.
    """
    if deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS:
        for p in p_values:
            yield p, 0.0, base.with_(p=float(p), sigma=0.0, xi=0.0)
        return
    for p in p_values:
        for d in disturb_values:
            if p + base.a * d > 1.0 + 1e-12:
                continue
            if deviation is Deviation.READ:
                yield p, d, base.with_(p=float(p), sigma=float(d), xi=0.0)
            else:
                yield p, d, base.with_(p=float(p), xi=float(d), sigma=0.0)


# Default parameter sets used in the paper's evaluation section.
#: Figure 5 / Figure 6 configuration (surfaces): N=50, a=10, P=30.
FIGURE_BASE = WorkloadParams(N=50, p=0.0, a=10, S=5000.0, P=30.0)
#: Table 7 configuration (validation): N=3, a=2, P=30, S=100.
TABLE7_BASE = WorkloadParams(N=3, p=0.0, a=2, S=100.0, P=30.0)
