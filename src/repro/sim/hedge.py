"""Hedged quorum requests: tail-latency tolerance for gray failures.

A quorum phase normally fans out to the cheapest live majority and waits;
when one of those replicas is a straggler (a :class:`~repro.sim.faults.
SlowWindow`), the whole phase — and the operation — waits with it.  A
:class:`HedgeConfig` arms a *hedge timer* on every quorum phase: if the
quorum has not assembled within ``budget`` time units, up to ``max_legs``
extra phase messages are launched to backup replicas outside the primary
target set, seeded and deterministic.  Whichever legs lose are cancelled
(their pending retransmissions voided; their late replies ignored by the
phase generation counter) — the classic "hedged request" discipline.

The extra legs are charged to a dedicated ``hedge`` share of
:meth:`~repro.sim.metrics.Metrics.average_cost_breakdown`, so the
acc-vs-tail-latency trade is measurable: each fired hedge leg costs what
the phase message costs (``S + 2`` per read-phase leg, ``P + 4`` per
write, split across the leg's request/reply pairs), bounded by
``max_legs`` per phase.

Pay-for-what-you-use: ``HedgeConfig`` rides on
:class:`~repro.sim.config.RunConfig` under a key that is only serialized
when hedging is configured, so every pre-existing cell id, cache key and
committed baseline stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util import field_kwargs

__all__ = ["HedgeConfig"]


@dataclass(frozen=True)
class HedgeConfig:
    """Configuration of hedged quorum requests (quorum protocols only).

    Args:
        budget: latency budget in simulation time units — how long a
            quorum phase waits before launching hedge legs.  Smaller
            budgets hedge more aggressively (more extra cost, better
            tail); the budget should sit between the healthy phase
            round trip (~2 hops) and the straggler's (~2 hops x
            factor).
        max_legs: most backup replicas one phase may hedge to.
        seed: seed for the deterministic backup-ordering shuffle, part
            of the configuration identity like every plan seed.
    """

    budget: float = 8.0
    max_legs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.budget > 0 and math.isfinite(self.budget)):
            raise ValueError(
                f"hedge budget must be a positive finite number, "
                f"got {self.budget}"
            )
        if self.max_legs < 1:
            raise ValueError(f"max_legs must be >= 1, got {self.max_legs}")

    def to_dict(self) -> dict:
        return {
            "budget": float(self.budget),
            "max_legs": int(self.max_legs),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HedgeConfig":
        return cls(**field_kwargs(cls, data, "HedgeConfig"))

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        return (f"budget={self.budget:g}, max_legs={self.max_legs}, "
                f"seed={self.seed}")
