"""Link-level network partitions and the heartbeat failure detector.

The fault model of :mod:`repro.sim.faults` knows *global* loss rates and
whole-node crashes; it cannot express the most interesting degraded
regimes of a replication-based DSM — a severed or asymmetric **link**.
A :class:`PartitionPlan` layers timed per-link faults over the global
:class:`~repro.sim.faults.FaultPlan`:

* a :class:`LinkFault` applies to one *directed* channel ``src -> dst``
  during ``[start, end)``.  ``drop_rate=1`` (the default) severs the
  link; lower rates model a degraded link, and per-link
  ``duplicate_rate``/``jitter`` override the plan's quiet defaults.
  Symmetric cuts are two mirrored link faults (:func:`cut`);
* a message is lost if *either* the global plan or an active link fault
  says so; effective rates on a link are the maximum over its active
  faults.  A full cut (``rate >= 1``) consumes no randomness, so cut
  schedules are deterministic independent of traffic.

A severed link alone would leave the reliable layer retrying forever
(or until its budget dies).  The plan therefore also configures a
**heartbeat failure detector** (:class:`FailureDetector`) that runs on
the sequencer: every ``heartbeat_interval`` it probes each client (one
bare token per probe, one per reply — priced into ``acc`` like any
other token via the ``detector`` breakdown share), and after
``suspect_after`` consecutive missed beats the client is **quarantined**
through the recovery subsystem — evicted from the cluster view, its
traffic absorbed instead of retried, its local operations stalled (or,
under ``policy="serve_local_reads"``, its queue-head reads served from
the stale local replica with monitor-visible staleness accounting).
When heartbeats flow again the detector drives the node through the
standard resync rejoin.

Determinism mirrors :class:`~repro.sim.faults.FaultPlan`: per-link
probabilistic decisions consume the plan's private ``random.Random``
stream in simulation order, the detector rolls probe losses on its own
derived stream (never perturbing the fabric's), and
``dataclasses.replace(plan)`` returns a fresh rewound plan.  A plan with
no link faults is normalized away entirely (pay-for-what-you-use).

Lookups: the plan is frozen configuration plus its RNG stream.  A
faulty reliable transport compiles its link faults, with the fault
plan's windows, into one :class:`~repro.sim.faults.FaultTimeline`, whose
segments carry each active directed link's ``(drop, duplicate, jitter)``
maxima; the transport's wire reads one segment per transmission and rolls the link's drop,
jitter and duplicate on this plan's stream, and the failure detector
reads the same timeline for its loss rates, down set and horizon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..util import field_kwargs
from .faults import Segment, decode_windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import DSMSystem

__all__ = [
    "DEMOTE_AFTER",
    "DEMOTE_PHI",
    "PARTITION_POLICIES",
    "LinkFault",
    "PartitionPlan",
    "FailureDetector",
    "cut",
    "isolate",
]

#: legal values of :attr:`PartitionPlan.policy` — what a quarantined
#: client does with its local operations while partitioned
PARTITION_POLICIES = ("stall", "serve_local_reads")


@dataclass(frozen=True, slots=True)
class LinkFault:
    """One directed link fault on channel ``src -> dst`` over ``[start, end)``.

    The default ``drop_rate=1`` severs the link (every transmission
    lost); rates below 1 model a degraded link.  ``duplicate_rate`` and
    ``jitter`` are per-link overrides layered over the global fault
    plan's values (the effective rate is the maximum of the two).
    """

    src: int
    dst: int
    start: float = 0.0
    end: float = math.inf
    drop_rate: float = 1.0
    duplicate_rate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(
                f"a link fault needs two distinct nodes, got {self.src}"
            )
        if self.start < 0:
            raise ValueError(f"link fault start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"link fault must end after it starts "
                f"({self.start} .. {self.end})"
            )
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1], got {self.drop_rate}"
            )
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}"
            )
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def covers(self, time: float) -> bool:
        """Whether this fault is active at ``time``."""
        return self.start <= time < self.end

    @property
    def is_cut(self) -> bool:
        """Whether the link is fully severed while active."""
        return self.drop_rate >= 1.0


def cut(a: int, b: int, start: float = 0.0,
        end: float = math.inf) -> List[LinkFault]:
    """A symmetric cut between ``a`` and ``b`` (both directions severed)."""
    return [LinkFault(a, b, start, end), LinkFault(b, a, start, end)]


def isolate(node: int, peers: Sequence[int], start: float = 0.0,
            end: float = math.inf) -> List[LinkFault]:
    """Sever every link between ``node`` and each of ``peers``."""
    links: List[LinkFault] = []
    for peer in peers:
        links.extend(cut(node, peer, start, end))
    return links


@dataclass(frozen=True)
class PartitionPlan:
    """A seeded, deterministic schedule of link faults plus detector knobs.

    Args:
        seed: seed of the plan's private RNG stream (probabilistic
            per-link decisions) and of the detector's derived stream.
        links: :class:`LinkFault` instances or
            ``(src, dst[, start[, end]])`` tuples.
        heartbeat_interval: time between detector probe rounds.
        suspect_after: consecutive missed beats before quarantine.
        policy: degraded-mode policy for quarantined clients — one of
            :data:`PARTITION_POLICIES`.
        detect: run the failure detector at all; ``False`` leaves the
            link faults active with no quarantine (the retry-forever
            baseline the detector exists to fix).

    Equality, hashing and ``repr`` cover the configuration fields only;
    the RNG stream is run state.
    """

    seed: int = 0
    links: Tuple[LinkFault, ...] = ()
    heartbeat_interval: float = 40.0
    suspect_after: int = 3
    policy: str = "stall"
    detect: bool = True
    _rng: random.Random = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # NaN slips past a plain `<= 0` comparison and inf past `< 1`;
        # either would silently wedge the probe scheduling, so demand
        # finite values explicitly.
        if not (self.heartbeat_interval > 0
                and math.isfinite(self.heartbeat_interval)):
            raise ValueError(
                f"heartbeat_interval must be a positive finite number, "
                f"got {self.heartbeat_interval}"
            )
        if not (self.suspect_after >= 1
                and math.isfinite(self.suspect_after)):
            raise ValueError(
                f"suspect_after must be a finite count >= 1, got "
                f"{self.suspect_after}"
            )
        if self.policy not in PARTITION_POLICIES:
            raise ValueError(
                f"policy must be one of {PARTITION_POLICIES}, "
                f"got {self.policy!r}"
            )
        links = tuple(f if isinstance(f, LinkFault) else LinkFault(*f)
                      for f in self.links)
        set_ = object.__setattr__
        set_(self, "links", links)
        set_(self, "_rng", random.Random(self.seed))

    @property
    def is_none(self) -> bool:
        """Whether the plan injects no link faults at all.

        Detector knobs alone do not make a plan — the detector rides
        along with link faults (pay-for-what-you-use).
        """
        return not self.links

    def validate_nodes(self, num_nodes: int) -> None:
        """Reject link faults naming nodes outside ``1 .. num_nodes``."""
        for f in self.links:
            for node in (f.src, f.dst):
                if not 1 <= node <= num_nodes:
                    raise ValueError(
                        f"link fault names node {node}, but the system has "
                        f"nodes 1 .. {num_nodes} (clients 1 .. "
                        f"{num_nodes - 1}, sequencer {num_nodes})"
                    )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dict of the configuration (``inf`` ends → None)."""
        return {
            "seed": int(self.seed),
            "heartbeat_interval": float(self.heartbeat_interval),
            "suspect_after": int(self.suspect_after),
            "policy": self.policy,
            "detect": bool(self.detect),
            "links": [
                [int(f.src), int(f.dst), float(f.start),
                 None if math.isinf(f.end) else float(f.end),
                 float(f.drop_rate), float(f.duplicate_rate),
                 float(f.jitter)]
                for f in self.links
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionPlan":
        """Rebuild a fresh (rewound) plan from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` instead of being silently
        dropped (a stale scenario file cannot half-apply).
        """
        return cls(**field_kwargs(cls, data, "PartitionPlan",
                                  links=decode_windows))

    def describe(self) -> str:
        """One-line human-readable summary (CLI output, chaos repros)."""
        if self.is_none:
            return "no partitions"
        parts = [f"seed={self.seed}"]
        if self.detect:
            parts.append(
                f"detector(interval={self.heartbeat_interval:g}, "
                f"suspect_after={self.suspect_after}, policy={self.policy})"
            )
        else:
            parts.append("detector=off")
        consumed = [False] * len(self.links)
        for i, f in enumerate(self.links):
            if consumed[i]:
                continue
            mirror = None
            for j in range(i + 1, len(self.links)):
                g = self.links[j]
                if (not consumed[j] and g.src == f.dst and g.dst == f.src
                        and g.start == f.start and g.end == f.end
                        and g.drop_rate == f.drop_rate
                        and g.duplicate_rate == f.duplicate_rate
                        and g.jitter == f.jitter):
                    mirror = j
                    break
            arrow = f"{f.src}->{f.dst}"
            if mirror is not None:
                consumed[mirror] = True
                arrow = f"{f.src}<->{f.dst}"
            end = "∞" if math.isinf(f.end) else f"{f.end:g}"
            window = f"{f.start:g}..{end}"
            if f.is_cut and not f.duplicate_rate and not f.jitter:
                parts.append(f"cut({arrow}: {window})")
            else:
                extras = [f"drop={f.drop_rate:g}"]
                if f.duplicate_rate:
                    extras.append(f"dup={f.duplicate_rate:g}")
                if f.jitter:
                    extras.append(f"jitter<={f.jitter:g}")
                parts.append(f"link({arrow}: {window}, {', '.join(extras)})")
        return ", ".join(parts)


#: phi-like score a response time must exceed for a probe to count as
#: "suspiciously slow" (standard deviations above the healthy baseline)
DEMOTE_PHI = 4.0

#: consecutive suspiciously-slow probes before a node is demoted, and
#: consecutive healthy-speed probes before a demoted node is restored
DEMOTE_AFTER = 2

#: floor on the baseline's standard deviation, as a fraction of its
#: mean — a perfectly constant RTT history must not make every future
#: sample infinitely surprising
_PHI_SIGMA_FLOOR = 0.05

def _link_drop(links: Dict[int, Dict[int, Tuple[float, float, float]]],
               src: int, dst: int) -> float:
    """The loss rate of ``src -> dst`` in a timeline segment's links."""
    rates = links.get(src, {}).get(dst)
    return 0.0 if rates is None else rates[0]


class FailureDetector:
    """Sequencer-side heartbeat prober feeding the recovery subsystem.

    Every ``heartbeat_interval`` the current sequencer probes each other
    node: one bare token out, one back when the probe is delivered and
    the node is alive.  Probe and reply losses are rolled against the
    *combined* loss probability of the global fault plan and the active
    link faults, read from the fabric's
    :class:`~repro.sim.faults.FaultTimeline`, on the detector's own
    derived RNG stream — the fabric's
    streams are never perturbed, so attaching the detector changes no
    fault decisions.  After :attr:`PartitionPlan.suspect_after`
    consecutive misses the node is quarantined
    (:meth:`RecoveryManager.quarantine_partitioned`); once probes flow
    again it is rejoined (:meth:`RecoveryManager.rejoin_partitioned`).

    **Latency-aware suspicion** (gray failures): successful probes also
    feed a phi-accrual-style score over the observed round-trip time —
    an EWMA baseline of mean and deviation, updated only by samples the
    score accepts as healthy so a straggler cannot normalize itself into
    the baseline.  A node whose RTT scores above :data:`DEMOTE_PHI` for
    :data:`DEMOTE_AFTER` consecutive probes is **demoted**: placed in
    ``cluster.demoted``, a state between healthy and suspected that
    deprioritizes the node (quorum phases prefer non-demoted replicas,
    hedged requests fire sooner) without quarantining it.  The RTT is
    the deterministic fabric delay (base latency × the fault plan's
    slowdown factor) — no RNG is consumed, so attaching the scorer
    changes no fault decisions either.

    The system's ``recovery`` is ``None`` on the quorum family: the
    detector then runs in demote-only mode — it never quarantines, since
    quorum liveness comes from re-selection, not eviction.

    Probing is horizon-bounded so the event list drains: rounds stop a
    few intervals after the timeline's last edge (the last scheduled
    fault/partition/slowdown edge) unless a quarantined node is still
    reachable-and-rejoining.  Without a timeline (a fault-free fabric)
    there is no edge and the detector never probes.
    """

    def __init__(self, system: "DSMSystem", plan: PartitionPlan) -> None:
        self.plan = plan
        self.cluster = system.cluster
        self.scheduler = system.scheduler
        self.metrics = system.metrics
        self.recovery = system.recovery
        self.timeline = system.network.timeline
        #: the global fault plan's loss rate (0 without a fault plan)
        self.drop_rate = (system.faults.drop_rate
                          if system.faults is not None else 0.0)
        self.all_nodes = system.all_nodes
        self.latency = float(system.network.latency)
        # derived stream: deterministic, independent of the fabric's
        self._rng = random.Random(plan.seed ^ 0x9E3779B97F4A7C15)
        self._missed: Dict[int, int] = {}
        # phi-accrual state per node: healthy-baseline EWMA of the probe
        # RTT's mean and absolute deviation, plus streak counters
        self._rtt_mean: Dict[int, float] = {}
        self._rtt_dev: Dict[int, float] = {}
        self._slow_streak: Dict[int, int] = {}
        self._fast_streak: Dict[int, int] = {}
        edges = self.timeline.edges if self.timeline is not None else ()
        slack = (plan.suspect_after + 3) * plan.heartbeat_interval
        self._horizon = (edges[-1] + slack) if edges else 0.0

    def start(self) -> None:
        """Schedule the first probe round (call once, at construction)."""
        if self._horizon > 0.0:
            self.scheduler.schedule(self.plan.heartbeat_interval, self._tick)

    # ------------------------------------------------------------------
    # probe rounds
    # ------------------------------------------------------------------

    def _lost(self, src: int, dst: int, segment: Segment) -> bool:
        """Roll one heartbeat transmission against the combined loss rate
        of the timeline ``segment`` at its time."""
        down, _slow, links = segment
        if dst in down:
            return True
        p = self.drop_rate
        q = _link_drop(links, src, dst)
        combined = 1.0 - (1.0 - p) * (1.0 - q)
        if combined >= 1.0:
            return True
        if combined <= 0.0:
            return False
        return self._rng.random() < combined

    def _healable(self, node: int, segment: Segment) -> bool:
        """Whether a probe round trip to ``node`` could ever succeed in
        the timeline ``segment``."""
        down, _slow, links = segment
        if node in down:
            return False
        seq = self.cluster.sequencer_id
        return (_link_drop(links, seq, node) < 1.0
                and _link_drop(links, node, seq) < 1.0)

    def _tick(self) -> None:
        now = self.scheduler.now
        seq = self.cluster.sequencer_id
        # one segment for the whole tick: the timeline is a function of
        # the time alone, and a round changes no time
        segment = self.timeline.at(now)
        if seq not in segment[0]:
            self._probe_round(segment, seq)
        # keep probing until the schedule's horizon, then only while a
        # quarantined node could still be driven through a rejoin (both
        # tests are pure, so the second runs only past the horizon).
        if (now + self.plan.heartbeat_interval <= self._horizon
                or (self.recovery is not None and any(
                    self.recovery.is_partition_quarantined(n)
                    and self._healable(n, segment)
                    for n in self.all_nodes))):
            self.scheduler.schedule(self.plan.heartbeat_interval, self._tick)

    def _probe_round(self, segment: Segment, seq: int) -> None:
        stats = self.metrics.partition
        down = segment[0]
        for node in self.all_nodes:
            if node == seq:
                continue
            stats.heartbeats += 1
            # probe: a bare token
            self.metrics.record_detector_cost(1.0, kind="probe",
                                              src=seq, dst=node)
            reachable = False
            if not self._lost(seq, node, segment) and node not in down:
                # the probe arrived; the node replies (another bare token)
                self.metrics.record_detector_cost(1.0, kind="probe_reply",
                                                  src=node, dst=seq)
                reachable = not self._lost(node, seq, segment)
            if reachable:
                self._missed[node] = 0
                self._score_rtt(node, seq, segment[1])
                if (self.recovery is not None
                        and self.recovery.is_partition_quarantined(node)):
                    self.recovery.rejoin_partitioned(node)
            else:
                self._missed[node] = self._missed.get(node, 0) + 1
                if (self.recovery is not None
                        and self._missed[node] >= self.plan.suspect_after
                        and not self.recovery.is_quarantined(node)):
                    stats.suspicions += 1
                    tracer = self.metrics.tracer
                    if tracer is not None:
                        tracer.system_event(
                            "suspect", src=seq, dst=node,
                            detail="node %d missed %d beats"
                            % (node, self._missed[node]),
                        )
                    self.recovery.quarantine_partitioned(
                        node, self.plan.policy
                    )

    # ------------------------------------------------------------------
    # latency-aware suspicion (phi-accrual over probe RTTs)
    # ------------------------------------------------------------------

    def _probe_rtt(self, node: int, seq: int,
                   slow: Dict[int, float]) -> float:
        """The round trip's deterministic fabric delay.

        Two hops of base latency, stretched by the slower endpoint's
        factor in ``slow``, the timeline segment's straggler factors.
        Jitter is excluded on purpose: sampling it would consume RNG and
        perturb the fabric's decision stream.
        """
        factor = (max(slow.get(seq, 1.0), slow.get(node, 1.0)) if slow
                  else 1.0)
        return 2.0 * self.latency * factor

    def _score_rtt(self, node: int, seq: int,
                   slow: Dict[int, float]) -> None:
        rtt = self._probe_rtt(node, seq, slow)
        mean = self._rtt_mean.get(node)
        if mean is None:
            # first observation seeds the healthy baseline
            self._rtt_mean[node] = rtt
            self._rtt_dev[node] = 0.0
            return
        dev = self._rtt_dev[node]
        sigma = max(dev, _PHI_SIGMA_FLOOR * mean)
        phi = (rtt - mean) / sigma if sigma > 0.0 else 0.0
        if phi > DEMOTE_PHI:
            self._slow_streak[node] = self._slow_streak.get(node, 0) + 1
            self._fast_streak[node] = 0
            if (self._slow_streak[node] >= DEMOTE_AFTER
                    and node not in self.cluster.demoted):
                self._set_demoted(node, seq, True)
        else:
            # healthy sample: fold it into the baseline (EWMA) — only
            # accepted samples adapt it, so a persistent straggler can
            # never normalize its own slowness away.
            alpha = 0.2
            self._rtt_mean[node] = (1 - alpha) * mean + alpha * rtt
            self._rtt_dev[node] = ((1 - alpha) * dev
                                   + alpha * abs(rtt - mean))
            self._fast_streak[node] = self._fast_streak.get(node, 0) + 1
            self._slow_streak[node] = 0
            if (self._fast_streak[node] >= DEMOTE_AFTER
                    and node in self.cluster.demoted):
                self._set_demoted(node, seq, False)

    def _set_demoted(self, node: int, seq: int, demoted: bool) -> None:
        stats = self.metrics.partition
        tracer = self.metrics.tracer
        if demoted:
            self.cluster.demoted.add(node)
            stats.demotions += 1
            if tracer is not None:
                tracer.system_event(
                    "demote", src=seq, dst=node,
                    detail="node %d persistently slow" % node,
                )
        else:
            self.cluster.demoted.discard(node)
            stats.restorations += 1
            if tracer is not None:
                tracer.system_event(
                    "restore", src=seq, dst=node,
                    detail="node %d back to healthy speed" % node,
                )

    def state_counts(self) -> Dict[str, int]:
        """Census of detector states over the probed nodes.

        ``suspected`` counts currently-quarantined nodes, ``demoted``
        the deprioritized stragglers, ``healthy`` the rest (the probing
        sequencer itself is not counted).
        """
        seq = self.cluster.sequencer_id
        probed = [n for n in self.all_nodes if n != seq]
        suspected = sum(1 for n in probed if n in self.cluster.quarantined)
        demoted = sum(1 for n in probed
                      if n in self.cluster.demoted
                      and n not in self.cluster.quarantined)
        return {
            "healthy": len(probed) - suspected - demoted,
            "demoted": demoted,
            "suspected": suspected,
        }
