"""Workload abstraction: stochastic steady-state operation streams.

The paper assumes "the workload consists of a collection of processes that
behave in a stochastic steady-state manner" (Section 4.2): every operation
slot is an independent trial over a fixed event sample space.  A
:class:`Workload` produces that trial stream as ``(node, kind, obj)``
triples; the simulator assigns Poisson arrival times and feeds the
operations to the nodes, and the analytic model consumes the same event
probabilities directly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


__all__ = ["OpTriple", "Workload", "EventTable"]

#: one sampled operation: (node index, "read"/"write", object index)
OpTriple = Tuple[int, str, int]


@dataclass(frozen=True)
class EventTable:
    """A discrete event distribution over ``(node, kind)`` pairs.

    Used per shared object: the paper assigns the same event probabilities
    to every object (Section 5.2), so one table serves all objects.
    """

    nodes: Tuple[int, ...]
    kinds: Tuple[str, ...]
    probs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.nodes) == len(self.kinds) == len(self.probs)):
            raise ValueError("nodes, kinds and probs must align")
        if any(p < -1e-12 for p in self.probs):
            raise ValueError(f"negative event probability in {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"event probabilities sum to {total}, expected 1")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Sample ``n`` event indices (vectorized)."""
        return rng.choice(len(self.probs), size=n, p=np.asarray(self.probs))


class Workload(abc.ABC):
    """A source of i.i.d. shared-memory operations."""

    #: number of shared objects the global address space decomposes into
    M: int = 1

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> List[OpTriple]:
        """Draw ``n`` operations."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line description for reports."""


class TableWorkload(Workload):
    """A workload defined by one :class:`EventTable` per object.

    Objects are selected uniformly (the paper: "the probabilities of the
    accesses to all of the shared objects are the same") unless
    ``object_probs`` supplies a skewed distribution (the hot-set knob of
    the bounded-replica-cache study).  The uniform path keeps its
    historical ``rng.integers`` draw, so every pre-existing seeded run
    stays bit-identical.
    """

    def __init__(self, tables: Sequence[EventTable],
                 object_probs: Optional[Sequence[float]] = None):
        if not tables:
            raise ValueError("at least one object table required")
        self.tables = list(tables)
        self.M = len(self.tables)
        if object_probs is None:
            self.object_probs: Optional[np.ndarray] = None
        else:
            probs = np.asarray(object_probs, dtype=float)
            if probs.shape != (self.M,):
                raise ValueError(
                    f"object_probs must have one entry per object "
                    f"(M={self.M}), got shape {probs.shape}"
                )
            if (probs < -1e-12).any():
                raise ValueError("negative object probability")
            if abs(float(probs.sum()) - 1.0) > 1e-9:
                raise ValueError(
                    f"object probabilities sum to {float(probs.sum())}, "
                    f"expected 1"
                )
            self.object_probs = probs

    def sample(self, rng: np.random.Generator, n: int) -> List[OpTriple]:
        if self.object_probs is None:
            objs = rng.integers(1, self.M + 1, size=n)
        else:
            objs = rng.choice(
                np.arange(1, self.M + 1), size=n, p=self.object_probs
            )
        out: List[OpTriple] = []
        # group by object for vectorized event sampling per table.
        if len({id(t) for t in self.tables}) == 1:
            # common fast path: identical tables for all objects.
            idx = self.tables[0].sample(rng, n)
            t = self.tables[0]
            out = [
                (t.nodes[i], t.kinds[i], int(o)) for i, o in zip(idx, objs)
            ]
            return out
        for pos in range(n):
            t = self.tables[int(objs[pos]) - 1]
            i = int(t.sample(rng, 1)[0])
            out.append((t.nodes[i], t.kinds[i], int(objs[pos])))
        return out

    def describe(self) -> str:
        return f"table workload over {self.M} objects"
