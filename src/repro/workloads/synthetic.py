"""Synthetic workloads for the paper's three deviations (Section 4.2).

Role layout (the paper's evaluation setup):

* the activity center is client 1;
* the ``a`` disturbing clients are clients ``2 .. a + 1``;
* the ``beta`` activity centers are clients ``1 .. beta``;
* the sequencer (node ``N + 1``) never issues operations — in the paper's
  deviations all actors are clients.
"""

from __future__ import annotations

from ..core.parameters import Deviation, WorkloadParams, object_access_probs
from ..protocols.base import READ, WRITE
from .base import EventTable, TableWorkload

__all__ = [
    "SyntheticWorkload",
    "make_event_table",
    "ideal_workload",
    "read_disturbance_workload",
    "write_disturbance_workload",
    "multiple_activity_centers_workload",
]


def make_event_table(params: WorkloadParams,
                     deviation: Deviation) -> EventTable:
    """Build the per-object event distribution for a deviation.

    Args:
        params: workload parameters (must be feasible for ``deviation``).
        deviation: which sample space to build.
    """
    if deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS:
        nodes, kinds, probs = [], [], []
        for c in range(1, params.beta + 1):
            nodes += [c, c]
            kinds += [READ, WRITE]
            probs += [params.per_center_read_prob, params.per_center_write_prob]
        return EventTable(tuple(nodes), tuple(kinds), tuple(probs))

    disturbers = list(range(2, params.a + 2))
    if deviation is Deviation.READ:
        ar = params.read_prob_activity_center_rd
        disturb_kind, disturb_p = READ, params.sigma
    else:
        ar = params.read_prob_activity_center_wd
        disturb_kind, disturb_p = WRITE, params.xi
    nodes = [1, 1] + disturbers
    kinds = [READ, WRITE] + [disturb_kind] * len(disturbers)
    probs = [ar, params.p] + [disturb_p] * len(disturbers)
    return EventTable(tuple(nodes), tuple(kinds), tuple(probs))


class SyntheticWorkload(TableWorkload):
    """The paper's five-parameter synthetic workload over ``M`` objects."""

    def __init__(self, params: WorkloadParams, deviation: Deviation,
                 M: int = 1):
        self.params = params
        self.deviation = deviation
        object_probs = object_access_probs(
            M, params.hot_set, params.hot_fraction
        )
        table = make_event_table(params, deviation)
        super().__init__([table] * M, object_probs=object_probs)

    def describe(self) -> str:
        p = self.params
        extra = {
            Deviation.READ: f"a={p.a}, sigma={p.sigma}",
            Deviation.WRITE: f"a={p.a}, xi={p.xi}",
            Deviation.MULTIPLE_ACTIVITY_CENTERS: f"beta={p.beta}",
        }[self.deviation]
        hot = ("" if p.hot_set is None
               else f", hot_set={p.hot_set}@{p.hot_fraction}")
        return (
            f"{self.deviation.value} (N={p.N}, p={p.p}, {extra}, "
            f"M={self.M}{hot})"
        )


def ideal_workload(params: WorkloadParams, M: int = 1) -> SyntheticWorkload:
    """The ideal workload: only the activity center touches each object.

    Equivalent to read disturbance with ``sigma = 0``.
    """
    return SyntheticWorkload(
        params.with_(sigma=0.0, xi=0.0), Deviation.READ, M=M
    )


def read_disturbance_workload(params: WorkloadParams,
                              M: int = 1) -> SyntheticWorkload:
    """Read-disturbance deviation: ``a`` clients also read the object."""
    return SyntheticWorkload(params, Deviation.READ, M=M)


def write_disturbance_workload(params: WorkloadParams,
                               M: int = 1) -> SyntheticWorkload:
    """Write-disturbance deviation: ``a`` clients also write the object."""
    return SyntheticWorkload(params, Deviation.WRITE, M=M)


def multiple_activity_centers_workload(params: WorkloadParams,
                                       M: int = 1) -> SyntheticWorkload:
    """Multiple-activity-centers deviation: ``beta`` symmetric centers."""
    return SyntheticWorkload(params, Deviation.MULTIPLE_ACTIVITY_CENTERS,
                             M=M)
