"""Protocol comparison: rankings and minimum-``acc`` region maps.

Supports the qualitative claims of paper Section 5.1 ("Berkeley incurs the
minimum communication cost in comparison with ...", "Illinois incurs acc
lower than the Synapse scheme", Figure 5d's Dragon-vs-Berkeley region
split), and answers "which protocol is cheapest for these workload
parameters?" for ``repro rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .acc import analytical_acc
from .parameters import Deviation, WorkloadParams

__all__ = ["rank_protocols", "best_protocol", "RegionMap", "min_acc_region_map"]

#: the paper's eight protocols in presentation order
ALL_PROTOCOLS = (
    "write_through",
    "write_through_v",
    "write_once",
    "synapse",
    "illinois",
    "berkeley",
    "dragon",
    "firefly",
)


def rank_protocols(
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    protocols: Iterable[str] = ALL_PROTOCOLS,
) -> List[Tuple[str, float]]:
    """Protocols sorted by ascending ``acc`` at one parameter point."""
    table = [
        (name, analytical_acc(name, params, deviation)) for name in protocols
    ]
    table.sort(key=lambda item: item[1])
    return table


def best_protocol(
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    protocols: Iterable[str] = ALL_PROTOCOLS,
) -> Tuple[str, float]:
    """The cheapest protocol and its ``acc`` at one parameter point."""
    return rank_protocols(params, deviation, protocols)[0]


@dataclass
class RegionMap:
    """Which protocol is cheapest at each feasible ``(p, disturb)`` point.

    ``winner[i, j]`` indexes into :attr:`protocols`; ``-1`` marks
    infeasible grid points.
    """

    protocols: Tuple[str, ...]
    deviation: Deviation
    p_values: np.ndarray
    disturb_values: np.ndarray
    winner: np.ndarray

    def share(self) -> Dict[str, float]:
        """Fraction of the feasible region each protocol wins."""
        feasible = self.winner >= 0
        total = int(feasible.sum())
        out: Dict[str, float] = {}
        for i, name in enumerate(self.protocols):
            out[name] = float((self.winner == i).sum()) / max(total, 1)
        return out

    def winner_at(self, p: float, disturb: float) -> Optional[str]:
        """The winning protocol at the nearest grid point (None if infeasible)."""
        i = int(np.abs(self.p_values - p).argmin())
        j = int(np.abs(self.disturb_values - disturb).argmin())
        w = int(self.winner[i, j])
        return None if w < 0 else self.protocols[w]


def min_acc_region_map(
    base: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    protocols: Iterable[str] = ALL_PROTOCOLS,
    p_values: Optional[Sequence[float]] = None,
    disturb_values: Optional[Sequence[float]] = None,
) -> RegionMap:
    """Compute the minimum-``acc`` winner over the workload plane.

    Figure 5d (Dragon vs Berkeley) is this map restricted to two
    protocols; the examples extend it to all eight.
    """
    protos = tuple(protocols)
    p_vals = np.asarray(
        p_values if p_values is not None else np.linspace(0.0, 1.0, 41),
        dtype=float,
    )
    if disturb_values is None:
        hi = 1.0 / base.a if base.a else 0.0
        disturb_values = np.linspace(0.0, hi, 41)
    d_vals = np.asarray(disturb_values, dtype=float)
    winner = np.full((p_vals.size, d_vals.size), -1, dtype=int)
    for i, p in enumerate(p_vals):
        for j, d in enumerate(d_vals):
            if p + base.a * d > 1.0 + 1e-12:
                continue
            if deviation is Deviation.READ:
                w = base.with_(p=float(p), sigma=float(d), xi=0.0)
            else:
                w = base.with_(p=float(p), xi=float(d), sigma=0.0)
            accs = [analytical_acc(name, w, deviation) for name in protos]
            winner[i, j] = int(np.argmin(accs))
    return RegionMap(protos, deviation, p_vals, d_vals, winner)
