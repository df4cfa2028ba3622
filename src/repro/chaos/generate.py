"""Deterministic generation of random fault + partition schedules.

One ``(base_seed, fuzz_seed, protocol)`` triple maps — through the same
stable hash the sweep engine uses for cell seeds
(:func:`repro.exp.spec.derive_cell_seed`) — to exactly one
:class:`~repro.exp.spec.SweepCell`: a small simulated workload with a
randomly drawn :class:`~repro.sim.faults.FaultPlan` (drop/dup/jitter plus
crash windows of random semantics), a randomly drawn
:class:`~repro.sim.partition.PartitionPlan` (symmetric cuts, asymmetric
cuts and degraded links, plus failure-detector knobs), a coin-flipped
sequencer failover, and the consistency monitor switched on.  Quorum
protocols additionally draw a random
:class:`~repro.sim.reconfig.ReconfigPlan` — online joins and leaves
overlapping the crash and partition windows — from draws made strictly
inside the quorum-only branch, so every non-quorum protocol's schedule
is bit-identical to what it was before reconfiguration fuzzing existed.
With ``slow_windows`` enabled the generator additionally draws straggler
:class:`~repro.sim.faults.SlowWindow` schedules and (for quorum
protocols) a coin-flipped :class:`~repro.sim.hedge.HedgeConfig`; every
draw sits strictly inside the flag's branch, so campaigns predating the
straggler model keep bit-identical schedules.  With ``bounded_caches``
enabled it additionally coin-flips a random
:class:`~repro.sim.cache.CacheConfig` (capacity, eviction policy and
tie-break seed) onto each cell, layering partial replication over the
crash and partition schedules — again with every draw strictly inside
the flag's branch.

The draw is a pure function of the triple: no wall clock, no process
state, no shared RNG.  Re-generating a cell from the same triple is
bit-identical, which is what lets the fuzzer replay, shrink and archive a
schedule from nothing but three integers and a protocol name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..core.parameters import Deviation, WorkloadParams
from ..exp.spec import SweepCell, derive_cell_seed
from ..protocols.registry import all_protocol_names, get_protocol
from ..sim.cache import CACHE_POLICIES, CacheConfig
from ..sim.config import RunConfig
from ..sim.faults import CRASH_SEMANTICS, CrashWindow, FaultPlan, SlowWindow
from ..sim.hedge import HedgeConfig
from ..sim.partition import PARTITION_POLICIES, LinkFault, PartitionPlan, cut
from ..sim.reconfig import MembershipChange, ReconfigPlan

__all__ = ["ALL_CHAOS_PROTOCOLS", "ChaosOptions", "chaos_cells",
           "generate_cell"]

#: every protocol the fuzzer exercises by default (registry + extensions)
ALL_CHAOS_PROTOCOLS: Tuple[str, ...] = tuple(all_protocol_names())

#: link-fault shapes the generator draws from
_LINK_SHAPES = ("cut", "one_way", "degraded")

#: heartbeat intervals the generator draws from
_HEARTBEAT_INTERVALS = (30.0, 40.0, 60.0)


@dataclass(frozen=True)
class ChaosOptions:
    """Everything that parameterizes one fuzzing campaign.

    Args:
        base_seed: campaign seed; every cell seed derives from it.
        seeds: fuzz seeds per protocol (cells = ``seeds × protocols``).
        protocols: protocols to fuzz; empty means every known protocol
            (:data:`ALL_CHAOS_PROTOCOLS`).
        N / M / ops / warmup / mean_gap: workload shape of every cell
            (small by design — the fuzzer favours many short runs over
            few long ones).
        p / a / sigma / S / P: the workload-parameter point.
        max_crashes: most crash windows one schedule may contain.
        max_links: most link-fault draws one schedule may contain (a
            symmetric cut counts as one draw).
        slow_windows: also draw gray-failure straggler windows
            (:class:`~repro.sim.faults.SlowWindow`), and — for quorum
            protocols — a coin-flipped :class:`~repro.sim.hedge.
            HedgeConfig`.  Off by default; every draw sits strictly
            inside the flag's branch, so campaigns predating the
            straggler model keep bit-identical schedules.
        max_slow: most slow windows one schedule may contain (only
            consulted when ``slow_windows`` is on).
        bounded_caches: also coin-flip a random bounded replica cache
            (:class:`~repro.sim.cache.CacheConfig`) onto each cell,
            layering partial replication — evictions, write-backs and
            capacity refetches — over the fault and partition
            schedules.  Off by default; every draw sits strictly inside
            the flag's branch, so campaigns predating partial
            replication keep bit-identical schedules.
        workers: worker processes for the fuzzing sweep (shrinking is
            always in-process).
        shrink_budget: most simulator runs one shrink may spend.
    """

    base_seed: int = 0
    seeds: int = 25
    protocols: Tuple[str, ...] = ()
    N: int = 4
    M: int = 2
    ops: int = 300
    warmup: int = 50
    mean_gap: float = 25.0
    p: float = 0.3
    a: int = 3
    sigma: float = 0.15
    S: float = 100.0
    P: float = 30.0
    max_crashes: int = 3
    max_links: int = 2
    slow_windows: bool = False
    max_slow: int = 2
    bounded_caches: bool = False
    workers: int = 1
    shrink_budget: int = 64

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        for name in self.protocols:
            if name not in ALL_CHAOS_PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {name!r}; known: "
                    f"{', '.join(ALL_CHAOS_PROTOCOLS)}"
                )
        object.__setattr__(self, "protocols", tuple(self.protocols))

    @property
    def resolved_protocols(self) -> Tuple[str, ...]:
        return self.protocols if self.protocols else ALL_CHAOS_PROTOCOLS

    @property
    def params(self) -> WorkloadParams:
        return WorkloadParams(N=self.N, p=self.p, a=self.a,
                              sigma=self.sigma, S=self.S, P=self.P)


def _draw_crashes(rng: random.Random, options: ChaosOptions,
                  horizon: float) -> List[CrashWindow]:
    """Draw up to ``max_crashes`` non-overlapping-per-node windows."""
    crashes: List[CrashWindow] = []
    spans: dict = {}
    for _ in range(rng.randint(0, options.max_crashes)):
        node = rng.randint(1, options.N + 1)
        start = round(rng.uniform(0.0, 0.7 * horizon), 1)
        end = round(start + rng.uniform(100.0, 600.0), 1)
        if any(s < end and start < e for s, e in spans.get(node, ())):
            # a draw overlapping an existing window on the same node is
            # discarded (FaultPlan rejects such schedules); dropping it —
            # instead of re-rolling — keeps the RNG stream bounded.
            continue
        spans.setdefault(node, []).append((start, end))
        crashes.append(
            CrashWindow(node, start, end, rng.choice(CRASH_SEMANTICS))
        )
    return crashes


def _draw_links(rng: random.Random, options: ChaosOptions,
                horizon: float) -> List[LinkFault]:
    """Draw up to ``max_links`` link faults (cuts and degraded links)."""
    links: List[LinkFault] = []
    for _ in range(rng.randint(0, options.max_links)):
        a = rng.randint(1, options.N + 1)
        b = rng.randint(1, options.N)
        if b >= a:  # distinct endpoint, uniform over ordered pairs
            b += 1
        start = round(rng.uniform(0.0, 0.7 * horizon), 1)
        end = round(start + rng.uniform(100.0, 600.0), 1)
        shape = rng.choice(_LINK_SHAPES)
        if shape == "cut":
            links.extend(cut(a, b, start, end))
        elif shape == "one_way":
            links.append(LinkFault(a, b, start, end))
        else:
            links.append(LinkFault(
                a, b, start, end,
                drop_rate=round(rng.uniform(0.2, 0.6), 3),
                jitter=round(rng.uniform(0.5, 3.0), 2),
            ))
    return links


def _draw_slow_windows(rng: random.Random, options: ChaosOptions,
                       horizon: float) -> List[SlowWindow]:
    """Draw up to ``max_slow`` non-overlapping-per-node straggler windows."""
    windows: List[SlowWindow] = []
    spans: dict = {}
    for _ in range(rng.randint(0, options.max_slow)):
        node = rng.randint(1, options.N + 1)
        start = round(rng.uniform(0.0, 0.7 * horizon), 1)
        end = round(start + rng.uniform(100.0, 600.0), 1)
        if any(s < end and start < e for s, e in spans.get(node, ())):
            # overlapping windows on one node are rejected by FaultPlan;
            # dropping the draw keeps the RNG stream bounded.
            continue
        spans.setdefault(node, []).append((start, end))
        windows.append(SlowWindow(
            node, start, end, factor=round(rng.uniform(2.0, 12.0), 1)
        ))
    return windows


def generate_cell(protocol: str, fuzz_seed: int,
                  options: ChaosOptions) -> SweepCell:
    """The schedule for one fuzz coordinate, as a ready-to-run cell.

    Pure in ``(options.base_seed, fuzz_seed, protocol)`` — calling this
    twice with the same arguments yields equal cells.
    """
    rng = random.Random(
        derive_cell_seed(options.base_seed, "chaos", fuzz_seed, protocol)
    )
    horizon = options.ops * options.mean_gap

    drop = round(rng.uniform(0.01, 0.10), 3) if rng.random() < 0.5 else 0.0
    dup = round(rng.uniform(0.01, 0.10), 3) if rng.random() < 0.4 else 0.0
    jitter = round(rng.uniform(0.5, 4.0), 2) if rng.random() < 0.5 else 0.0
    crashes = _draw_crashes(rng, options, horizon)
    links = _draw_links(rng, options, horizon)
    slowdowns: List[SlowWindow] = []
    hedge = None
    if options.slow_windows:
        # gray-failure fuzzing is opt-in, and every draw sits strictly
        # inside this branch: with the flag off the RNG stream — and
        # thus every schedule — is bit-identical to earlier campaigns.
        slowdowns = _draw_slow_windows(rng, options, horizon)
        if get_protocol(protocol).quorum_based and rng.random() < 0.6:
            hedge = HedgeConfig(
                budget=round(rng.uniform(4.0, 16.0), 1),
                max_legs=rng.randint(1, 2),
                seed=rng.getrandbits(32),
            )
    cache = None
    if options.bounded_caches:
        # partial-replication fuzzing is opt-in, and every draw sits
        # strictly inside this branch: with the flag off the RNG stream
        # — and thus every schedule — is bit-identical to campaigns
        # predating bounded caches.
        if rng.random() < 0.8:
            cache = CacheConfig(
                capacity=rng.randint(1, max(options.M - 1, 1)),
                policy=rng.choice(CACHE_POLICIES),
                seed=rng.getrandbits(32),
            )

    heartbeat = rng.choice(_HEARTBEAT_INTERVALS)
    suspect_after = rng.randint(2, 4)
    policy = rng.choice(PARTITION_POLICIES)
    failover = rng.random() < 0.5

    reconfig = None
    if get_protocol(protocol).quorum_based:
        # the quorum family rejects amnesia crashes and failover (no
        # sequencer, durable replicas); sanitize *after* all draws so the
        # RNG stream — and thus every other protocol's schedule — is
        # untouched and the cell stays a pure function of the triple.
        crashes = [
            CrashWindow(w.node, w.start, w.end, "durable") for w in crashes
        ]
        failover = False
        # randomized online-membership schedules (joins/leaves that
        # overlap the crash and partition windows drawn above).  All
        # reconfiguration draws live inside this branch, so every
        # non-quorum protocol's RNG stream — and schedule — is untouched.
        members = set(range(1, options.N + 2))
        next_join = options.N + 2
        changes: List[MembershipChange] = []
        for window in ((0.15, 0.45), (0.55, 0.8)):
            if rng.random() >= 0.55:
                continue
            at = round(rng.uniform(*window) * horizon, 1)
            joins: List[int] = []
            leaves: List[int] = []
            if rng.random() < 0.6:
                joins.append(next_join)
            if (rng.random() < 0.5
                    and len(members) + len(joins) - 1 >= 2):
                leaves.append(rng.choice(sorted(members)))
            if not joins and not leaves:
                continue
            next_join += len(joins)
            members.update(joins)
            members.difference_update(leaves)
            changes.append(MembershipChange(at=at, joins=tuple(joins),
                                            leaves=tuple(leaves)))
        if changes:
            reconfig = ReconfigPlan(seed=rng.getrandbits(32),
                                    changes=tuple(changes))

    faults = FaultPlan(seed=rng.getrandbits(32), drop_rate=drop,
                       duplicate_rate=dup, jitter=jitter, crashes=crashes,
                       slowdowns=slowdowns)
    partitions = PartitionPlan(
        seed=rng.getrandbits(32), links=links,
        heartbeat_interval=heartbeat, suspect_after=suspect_after,
        policy=policy,
    )
    config = RunConfig(
        ops=options.ops,
        warmup=options.warmup,
        seed=rng.getrandbits(32),
        mean_gap=options.mean_gap,
        faults=None if faults.is_none else faults,
        partitions=None if partitions.is_none else partitions,
        failover=failover,
        monitor=True,
        reconfig=reconfig,
        hedge=hedge,
        cache=cache,
    )
    return SweepCell(
        protocol=protocol,
        params=options.params,
        deviation=Deviation.READ,
        kind="sim",
        M=options.M,
        config=config,
    )


def chaos_cells(
    options: ChaosOptions,
) -> List[Tuple[str, int, SweepCell]]:
    """Every ``(protocol, fuzz_seed, cell)`` of a campaign, in order."""
    return [
        (protocol, fuzz_seed, generate_cell(protocol, fuzz_seed, options))
        for protocol in options.resolved_protocols
        for fuzz_seed in range(options.seeds)
    ]
