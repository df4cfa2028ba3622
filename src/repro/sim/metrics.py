"""Cost accounting and trace classification for the simulator.

The paper's performance measure is the steady-state average communication
cost per operation (``acc``).  The simulator reproduces the measurement
procedure of Section 5.2: every message is attributed to the operation
whose trace it belongs to (messages carry the initiating operation's id);
``acc`` is computed over the operations completed after a warm-up prefix —
"to eliminate the influence of the transient period, the first 500
operations are neglected [and] approximately 1500 operations from the
steady-state period are taken into consideration".

Per-operation message sequences double as *trace signatures*: the ordered
tuple of ``(message type, parameter presence)`` pairs identifies which of
the protocol's traces the operation produced, which the integration tests
compare against the paper's trace sets (Figures 2-4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from ..machines.message import Message, MessageToken, MsgType, ParamPresence

__all__ = ["OpRecord", "PartitionStats", "ReconfigStats", "RecoveryStats",
           "ReliabilityStats", "ReplicaCacheStats", "Metrics"]


#: the trace-signature entry of every (message type, presence) pair, built
#: once: ``_SIGNATURE_ENTRY[type][presence] == (type.value, presence.value)``.
#: Both enums hash by identity, so the lookup runs in C, and every charged
#: message appends a shared immutable tuple instead of allocating one that
#: the run keeps until it ends.
_SIGNATURE_ENTRY: Dict[MsgType, Dict[ParamPresence, Tuple[str, str]]] = {
    t: {p: (t.value, p.value) for p in ParamPresence} for t in MsgType
}


@dataclass(slots=True)
class OpRecord:
    """Everything measured about one completed (or in-flight) operation."""

    op_id: int
    node: int
    kind: str
    obj: int
    issue_time: float
    complete_time: Optional[float] = None
    #: total communication cost attributed to this operation
    cost: float = 0.0
    #: ordered (msg_type, presence) trace signature; its entries are the
    #: shared tuples of ``_SIGNATURE_ENTRY``
    signature: List[Tuple[str, str]] = field(default_factory=list)
    #: portion of ``cost`` charged by the reliability layer (retransmissions
    #: and acknowledgements); 0 on the fault-free fabric
    reliability_cost: float = 0.0
    #: portion of ``cost`` charged by quorum re-selection (re-broadcast
    #: phase messages and their replies after a quorum timeout); 0 for
    #: the star protocols and for quorum runs on a fault-free fabric
    quorum_cost: float = 0.0
    #: portion of ``cost`` charged by hedged quorum legs (backup-replica
    #: phase messages launched after the hedge latency budget); 0 unless
    #: hedging is configured
    hedge_cost: float = 0.0
    #: portion of ``cost`` charged by the bounded replica cache: eviction
    #: traffic (write-backs, directory departure notices) redirected from
    #: the eject this operation triggered, plus the refetch cost of a
    #: capacity-missed read; 0 unless a cache is configured
    cache_cost: float = 0.0

    @property
    def completed(self) -> bool:
        """Whether the operation has finished."""
        return self.complete_time is not None


@dataclass(slots=True)
class ReliabilityStats:
    """Counters for the fault plan and the reliable-delivery layer.

    All zero on the paper-faithful fault-free fabric.  ``cost`` is the total
    communication cost the reliability layer added on top of the protocol's
    own messages; dividing it over the measurement window gives the
    reliability share of ``acc`` (see :meth:`Metrics.average_cost_breakdown`).
    """

    #: retransmissions triggered by acknowledgement timeouts
    retransmissions: int = 0
    #: acknowledgement frames sent by receivers
    acks: int = 0
    #: received frames discarded as duplicates (injected or retransmitted)
    duplicates_suppressed: int = 0
    #: frames parked in a reorder buffer until the FIFO gap closed
    out_of_order_held: int = 0
    #: physical transmissions lost (random drops + deliveries to dead nodes)
    drops: int = 0
    #: extra physical deliveries injected by the fault plan
    duplicates_injected: int = 0
    #: sends swallowed because the source node was crashed
    sends_suppressed: int = 0
    #: node crash / recovery edges observed during the run
    crashes: int = 0
    recoveries: int = 0
    #: sends abandoned after the retry budget ran out (graceful degradation)
    delivery_failures: int = 0
    #: unordered datagrams silently abandoned after the retry budget ran
    #: out (quorum transport; liveness is owned by quorum re-selection,
    #: so an abandoned datagram is not a delivery failure)
    dgram_abandoned: int = 0
    #: quorum re-selection attempts (phase timeouts that triggered a
    #: re-broadcast to non-responders); zero on a fault-free fabric
    quorum_reselections: int = 0
    #: hedge legs launched by quorum phases whose latency budget expired
    #: (:mod:`repro.sim.hedge`); zero unless hedging is configured
    hedges_launched: int = 0
    #: operation ids whose traffic hit a delivery failure
    failed_op_ids: List[int] = field(default_factory=list)
    #: total communication cost charged by the reliability layer
    cost: float = 0.0


@dataclass(slots=True)
class RecoveryStats:
    """Counters for the crash-recovery subsystem (:mod:`repro.sim.recovery`).

    All zero without amnesia crash windows or sequencer failover.  ``cost``
    is the total communication cost the recovery protocol charged (epoch
    announcements, standby elections, snapshot/catch-up transfers); it is
    system-level traffic not attributable to any single operation, so
    :meth:`Metrics.average_cost_breakdown` amortizes it over the
    measurement window as a separate ``recovery`` share.
    """

    #: global epoch resets (view changes) driven by crashes and rejoins
    epoch_resets: int = 0
    #: sequencer failovers (standby elections)
    failovers: int = 0
    #: operations lost to amnesia crashes (issued, never completed)
    ops_lost: int = 0
    #: in-flight operations re-driven after an epoch reset
    ops_redriven: int = 0
    #: unacknowledged transport frames voided by epoch resets
    frames_voided: int = 0
    #: received frames dropped for carrying a stale epoch
    stale_frames_dropped: int = 0
    #: replicas resynchronized at node rejoin (snapshot or catch-up)
    resync_objects: int = 0
    #: communication cost of resynchronization transfers alone
    resync_cost: float = 0.0
    #: total simulated time rejoining nodes spent quarantined
    quarantine_time: float = 0.0
    #: total communication cost charged by the recovery subsystem
    cost: float = 0.0


@dataclass(slots=True)
class PartitionStats:
    """Counters for link partitions and the heartbeat failure detector.

    All zero without a :class:`~repro.sim.partition.PartitionPlan`.
    ``cost`` is the total communication cost of detector traffic (probes
    and replies); like recovery traffic it serves the system as a whole,
    so :meth:`Metrics.average_cost_breakdown` amortizes it over the
    measurement window as a separate ``detector`` share.
    """

    #: heartbeat probes sent by the sequencer-side failure detector
    heartbeats: int = 0
    #: nodes declared suspect (``suspect_after`` consecutive missed beats)
    suspicions: int = 0
    #: nodes demoted for persistent slowness (phi-accrual score high for
    #: consecutive probes) — deprioritized, not quarantined
    demotions: int = 0
    #: demoted nodes restored to healthy after their speed recovered
    restorations: int = 0
    #: partition-quarantined nodes driven through a resync rejoin
    rejoins: int = 0
    #: reads served from a stale local replica under ``serve_local_reads``
    stale_reads_served: int = 0
    #: sends to quarantined destinations absorbed instead of retried
    sends_absorbed: int = 0
    #: local operations still gated at quarantined nodes at run end
    ops_stalled: int = 0
    #: retry-budget delivery violations suppressed because the
    #: destination was quarantined or crashed (expected unreachability,
    #: not a delivery bug) — previously invisible
    suppressed_violations: int = 0
    #: total simulated time nodes spent partition-quarantined (healed
    #: partitions only; a node still quarantined at run end is not counted)
    partition_time: float = 0.0
    #: total communication cost of detector probes and replies
    cost: float = 0.0


@dataclass(slots=True)
class ReconfigStats:
    """Counters for online replica-set reconfiguration
    (:mod:`repro.sim.reconfig`).

    All zero without a :class:`~repro.sim.reconfig.ReconfigPlan` that
    schedules membership changes.  ``cost`` is the total communication
    cost the reconfiguration protocol charged (change announcements,
    versioned state transfers, new-quorum sync, epoch announcements);
    like recovery traffic it is system-level and amortized over the
    measurement window as the ``reconfig`` share of
    :meth:`Metrics.average_cost_breakdown`.
    """

    #: membership transitions entered (joint mode begun)
    transitions: int = 0
    #: transitions committed (new membership took effect, epoch bumped)
    commits: int = 0
    #: transitions rolled back after the transfer retry budget ran out
    aborts: int = 0
    #: nodes that joined / left across all scheduled changes
    joins: int = 0
    leaves: int = 0
    #: in-flight operations re-driven at a joint-mode entry, commit or
    #: abort boundary (each still completes exactly once)
    ops_redriven: int = 0
    #: object copies installed by state transfer and new-quorum sync
    transfer_objects: int = 0
    #: state-transfer / commit attempts retried (donors unreachable)
    transfer_retries: int = 0
    #: transitions whose transfer exhausted its retries (each aborted)
    transfers_failed: int = 0
    #: communication cost of state transfers and sync alone
    transfer_cost: float = 0.0
    #: total simulated time spent in joint (two-majority) mode
    joint_time: float = 0.0
    #: total communication cost charged by the reconfiguration subsystem
    cost: float = 0.0


@dataclass(slots=True)
class ReplicaCacheStats:
    """Counters for bounded replica caches (:mod:`repro.sim.cache`).

    All zero without a :class:`~repro.sim.cache.CacheConfig`.  A *hit*
    is a data operation dispatched while its object's copy was resident;
    a *miss* is one dispatched without it; ``capacity_misses`` is the
    subset of misses on objects the issuing node's cache evicted and had
    not re-accessed since — the misses full replication would not have
    paid.  ``cost`` totals the cache's communication charges (eviction
    write-backs and departure notices plus reclassified refetches);
    dividing it over the measurement window gives the ``cache`` share of
    :meth:`Metrics.average_cost_breakdown`.
    """

    #: data operations dispatched with the object's copy resident
    hits: int = 0
    #: data operations dispatched without a resident copy
    misses: int = 0
    #: misses caused by this cache's own evictions (first re-access only)
    capacity_misses: int = 0
    #: copies evicted to enforce capacity
    evictions: int = 0
    #: evictions of dirty copies that flushed the value home (``WB``)
    writebacks: int = 0
    #: protocol refetch cost reclassified from capacity-missed reads
    refetch_cost: float = 0.0
    #: total communication cost charged to the cache share
    cost: float = 0.0


class Metrics:
    """Accumulates operation records and computes steady-state ``acc``."""

    def __init__(self) -> None:
        self._ops: Dict[int, OpRecord] = {}
        self._completed: List[int] = []  # op ids in completion order
        #: total cost of unattributed messages (op_id None); should stay 0
        self.unattributed_cost: float = 0.0
        #: optional :class:`repro.obs.Tracer`; every cost-charging method
        #: below mirrors its charge into the tracer, so span costs equal
        #: operation costs by construction
        self.tracer = None
        #: fault-injection / reliable-delivery counters (all zero without
        #: a fault plan)
        self.reliability = ReliabilityStats()
        #: crash-recovery counters (all zero without amnesia/failover)
        self.recovery = RecoveryStats()
        #: partition / failure-detector counters (all zero without a
        #: partition plan)
        self.partition = PartitionStats()
        #: replica-set reconfiguration counters (all zero without a
        #: reconfiguration plan)
        self.reconfig = ReconfigStats()
        #: bounded-replica-cache counters (all zero without a cache)
        self.cache = ReplicaCacheStats()
        #: eject op id -> data op id whose completion forced the eviction;
        #: redirected operations are never registered or counted — their
        #: traffic lands on the target's ``cache_cost``
        self._redirects: Dict[int, int] = {}
        #: read op ids classified as capacity misses at dispatch; their
        #: protocol refetch cost is reclassified into the cache share at
        #: completion
        self._capacity_miss_ops: set = set()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def register_op(self, op_id: int, node: int, kind: str, obj: int,
                    issue_time: float) -> None:
        """Register an operation when the application issues it."""
        self._ops[op_id] = OpRecord(op_id, node, kind, obj, issue_time)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op_id, node, kind, obj, issue_time)

    def redirect_op(self, op_id: int, target_id: int) -> None:
        """Route one operation's charges onto another's ``cache_cost``.

        Used by the replica cache for its eject operations: the eject is
        internal bookkeeping (never an application operation), so its
        traffic is charged to the data operation whose completion forced
        the eviction, under the ``cache`` share, and the eject itself is
        excluded from completion counts and ``acc`` denominators.
        """
        self._redirects[op_id] = self._redirects.get(target_id, target_id)

    def mark_capacity_miss(self, op_id: int) -> None:
        """Flag a read whose refetch cost belongs to the ``cache`` share."""
        self._capacity_miss_ops.add(op_id)

    def record_message(self, msg: Message, cost: float) -> None:
        """Charge one message's cost to its operation (Network cost hook)."""
        tracer = self.tracer
        rec = self._ops.get(msg.op_id)
        if rec is None:
            # never registered: a cache eject (redirected) or no operation
            target = self._redirects.get(msg.op_id)
            if target is not None:
                # eviction traffic (write-back / departure notice): charge
                # the triggering data operation's cache share, but keep
                # its trace signature protocol-pure.
                rec = self._ops[target]
                rec.cost += cost
                rec.cache_cost += cost
                self.cache.cost += cost
                if tracer is not None:
                    tracer.op_event("evict", target, cost=cost, src=msg.src,
                                    dst=msg.dst, detail=msg.token.type.value)
                return
            self.unattributed_cost += cost
            if tracer is not None:
                tracer.op_event("send", None, cost=cost, src=msg.src, dst=msg.dst,
                                detail=msg.token.type.value)
            return
        rec.cost += cost
        token = msg.token
        rec.signature.append(
            _SIGNATURE_ENTRY[token.type][token.parameter_presence]
        )
        if tracer is not None:
            tracer.op_event("send", msg.op_id, cost=cost, src=msg.src, dst=msg.dst,
                            detail=msg.token.type.value)

    def record_fan_out(self, token: MessageToken, src: int,
                       dsts: Sequence[int], op_id: Optional[int],
                       cost: float) -> None:
        """Charge one fan-out of ``token`` from ``src`` to ``dsts``
        (Network cost hook).

        Exactly what one :meth:`record_message` per member would charge,
        in member order, with a member sent to ``src`` itself free: the
        operation is looked up once, its signature gains one entry per
        charged member, and each total takes the charged members' costs
        as that many sequential float additions.  The eviction and
        unattributed cases, and the tracer's per-member events, are
        branches of this one call.
        """
        charged = len(dsts) - dsts.count(src)
        rec = self._ops.get(op_id)
        if rec is not None:
            total = rec.cost
            for _ in repeat(None, charged):
                total += cost
            rec.cost = total
            rec.signature += [
                _SIGNATURE_ENTRY[token.type][token.parameter_presence]
            ] * charged
            kind, event_id = "send", op_id
        else:
            target = self._redirects.get(op_id)
            if target is not None:
                # eviction traffic, as in record_message
                rec = self._ops[target]
                stats = self.cache
                for _ in repeat(None, charged):
                    rec.cost += cost
                    rec.cache_cost += cost
                    stats.cost += cost
                kind, event_id = "evict", target
            else:
                total = self.unattributed_cost
                for _ in repeat(None, charged):
                    total += cost
                self.unattributed_cost = total
                kind, event_id = "send", None
        tracer = self.tracer
        if tracer is not None:
            detail = token.type.value
            for dst in dsts:
                if dst != src:
                    tracer.op_event(kind, event_id, cost=cost, src=src,
                                    dst=dst, detail=detail)

    def record_reliability_cost(self, op_id: Optional[int], cost: float,
                                kind: str = "reliability") -> None:
        """Charge a reliability-layer message (retransmission or ack).

        The cost is attributed to the operation whose traffic needed it —
        it inflates the operation's ``cost`` (and hence ``acc``) but is
        tracked separately so the overhead of reliable delivery can be
        broken out — and is *not* appended to the trace signature, so
        trace-set comparisons against the paper stay meaningful under
        faults.  ``kind`` labels the trace event ("retransmit" / "ack").
        """
        if op_id is not None and op_id in self._redirects:
            # retransmitted eviction traffic: the reliability overhead of
            # the eject lands on the triggering data operation like any
            # other per-operation reliability charge.
            op_id = self._redirects[op_id]
        self.reliability.cost += cost
        tracer = self.tracer
        if op_id is None or op_id not in self._ops:
            self.unattributed_cost += cost
            if tracer is not None:
                tracer.op_event(kind, None, cost=cost)
            return
        rec = self._ops[op_id]
        rec.cost += cost
        rec.reliability_cost += cost
        if tracer is not None:
            tracer.op_event(kind, op_id, cost=cost)

    def record_quorum_cost(self, op_id: Optional[int], cost: float,
                           kind: str = "quorum") -> None:
        """Charge a quorum re-selection message (re-broadcast or reply).

        Like reliability overhead it inflates the operation's ``cost``
        without touching the trace signature, but it is tracked as its
        own share: re-selection traffic is the price of a quorum
        protocol's availability under faults, not of reliable delivery.
        Zero on a fault-free fabric, where no phase ever times out.
        """
        tracer = self.tracer
        if op_id is None or op_id not in self._ops:
            self.unattributed_cost += cost
            if tracer is not None:
                tracer.op_event(kind, None, cost=cost)
            return
        rec = self._ops[op_id]
        rec.cost += cost
        rec.quorum_cost += cost
        if tracer is not None:
            tracer.op_event(kind, op_id, cost=cost)

    def record_hedge_cost(self, op_id: Optional[int], cost: float,
                          kind: str = "hedge") -> None:
        """Charge a hedged quorum leg (backup-replica phase message).

        Like re-selection overhead it inflates the operation's ``cost``
        without touching the trace signature, but it is tracked as its
        own share: hedge traffic is the price of tail-latency tolerance
        under gray failures, deliberately spent *before* any timeout
        fires.  Zero unless hedging is configured.
        """
        tracer = self.tracer
        if op_id is None or op_id not in self._ops:
            self.unattributed_cost += cost
            if tracer is not None:
                tracer.op_event(kind, None, cost=cost)
            return
        rec = self._ops[op_id]
        rec.cost += cost
        rec.hedge_cost += cost
        if tracer is not None:
            tracer.op_event(kind, op_id, cost=cost)

    def record_recovery_cost(self, cost: float, kind: str = "recovery") -> None:
        """Charge recovery-subsystem traffic (elections, snapshots).

        Recovery traffic serves the system as a whole, not one operation,
        so it is never attributed to an :class:`OpRecord`; it is tracked
        in :attr:`RecoveryStats.cost` and amortized over the measurement
        window by :meth:`average_cost_breakdown`.  ``kind`` labels the
        system-level trace event ("election", "epoch_announce", "resync").
        """
        self.recovery.cost += cost
        tracer = self.tracer
        if tracer is not None:
            tracer.system_event(kind, cost=cost)

    def record_reconfig_cost(self, cost: float, kind: str = "reconfig") -> None:
        """Charge reconfiguration traffic (announcements, state transfer).

        Like recovery traffic it serves the system as a whole rather than
        one operation; it is tracked in :attr:`ReconfigStats.cost` and
        amortized over the measurement window by
        :meth:`average_cost_breakdown`.  ``kind`` labels the system-level
        trace event ("announce", "transfer", "sync", "epoch_announce").
        """
        self.reconfig.cost += cost
        tracer = self.tracer
        if tracer is not None:
            tracer.system_event(kind, cost=cost)

    def record_detector_cost(self, cost: float, kind: str = "detector",
                             src: Optional[int] = None,
                             dst: Optional[int] = None) -> None:
        """Charge failure-detector traffic (heartbeat probes and replies).

        Like recovery traffic, detector traffic serves the system as a
        whole rather than one operation; it is tracked in
        :attr:`PartitionStats.cost` and amortized over the measurement
        window by :meth:`average_cost_breakdown`.  ``kind`` labels the
        system-level trace event ("probe", "probe_reply").
        """
        self.partition.cost += cost
        tracer = self.tracer
        if tracer is not None:
            tracer.system_event(kind, cost=cost, src=src, dst=dst)

    def record_complete(self, op_id: int, time: float) -> None:
        """Mark an operation complete (in global completion order)."""
        if op_id in self._redirects:
            return  # cache ejects are bookkeeping, not operations
        rec = self._ops[op_id]
        # the field itself: the ``completed`` property would cost a frame
        if rec.complete_time is not None:  # pragma: no cover - bug guard
            raise RuntimeError(f"operation {op_id} completed twice")
        rec.complete_time = time
        self._completed.append(op_id)
        if op_id in self._capacity_miss_ops:
            # the protocol traffic this read paid was a cache-capacity
            # refetch: move it into the cache share (total unchanged).
            extra = (rec.cost - rec.reliability_cost - rec.quorum_cost
                     - rec.hedge_cost - rec.cache_cost)
            if extra > 0:
                rec.cache_cost += extra
                self.cache.refetch_cost += extra
                self.cache.cost += extra
        tracer = self.tracer
        if tracer is not None:
            tracer.end_op(op_id, time)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def completed_count(self) -> int:
        """Number of completed operations."""
        return len(self._completed)

    def records(self, skip: int = 0, take: Optional[int] = None) -> List[OpRecord]:
        """Completed operation records, in completion order, windowed."""
        ids = self._completed[skip: None if take is None else skip + take]
        return [self._ops[i] for i in ids]

    def average_cost(self, skip: int = 0, take: Optional[int] = None) -> float:
        """Steady-state average communication cost per operation.

        Args:
            skip: warm-up operations to drop (the paper drops 500).
            take: measurement window size (the paper uses about 1500).
        """
        recs = self.records(skip, take)
        if not recs:
            raise ValueError("no completed operations in the window")
        return sum(r.cost for r in recs) / len(recs)

    def average_cost_breakdown(self, skip: int = 0, take: Optional[int] = None
                               ) -> Dict[str, float]:
        """Split steady-state ``acc`` into its cost shares.

        Returns ``{"acc", "protocol", "reliability", "quorum", "hedge",
        "cache", "recovery", "detector", "reconfig"}`` where ``acc`` is
        the usual per-operation total (``protocol + reliability + quorum
        + hedge + cache``),
        ``protocol`` is the cost the coherence traces would incur on a
        fault-free fabric, ``reliability`` is the per-operation overhead
        of retransmissions and acknowledgements, ``quorum`` is the
        per-operation overhead of quorum re-selection (re-broadcast
        phase messages after quorum timeouts; SC-ABD only), ``hedge``
        is the per-operation overhead of hedged backup legs (extra
        phase fan-out after the hedge latency budget; zero unless
        hedging is configured), ``cache`` is the per-operation cost of
        bounded replica caches (eviction write-backs / departure notices
        plus capacity-miss refetches; zero unless a cache is
        configured), and ``recovery`` / ``detector`` are the crash-recovery subsystem's
        and the failure detector's system-level traffic (elections,
        epoch announcements, resynchronization transfers; heartbeat
        probes and replies) amortized over the same window — they ride
        on top of ``acc`` rather than inside it because they are not
        attributable to individual operations.  ``reconfig`` amortizes
        replica-set reconfiguration traffic (membership announcements,
        versioned state transfers, epoch announcements) the same way.
        """
        recs = self.records(skip, take)
        if not recs:
            raise ValueError("no completed operations in the window")
        total = sum(r.cost for r in recs) / len(recs)
        overhead = sum(r.reliability_cost for r in recs) / len(recs)
        quorum = sum(r.quorum_cost for r in recs) / len(recs)
        hedge = sum(r.hedge_cost for r in recs) / len(recs)
        cache = sum(r.cache_cost for r in recs) / len(recs)
        return {
            "acc": total,
            "protocol": total - overhead - quorum - hedge - cache,
            "reliability": overhead,
            "quorum": quorum,
            "hedge": hedge,
            "cache": cache,
            "recovery": self.recovery.cost / len(recs),
            "detector": self.partition.cost / len(recs),
            "reconfig": self.reconfig.cost / len(recs),
        }

    def average_cost_by(self, skip: int = 0, take: Optional[int] = None
                        ) -> Dict[Tuple[int, str], Tuple[float, int]]:
        """Per ``(node, kind)`` mean cost and count over the window."""
        groups: Dict[Tuple[int, str], List[float]] = {}
        for r in self.records(skip, take):
            groups.setdefault((r.node, r.kind), []).append(r.cost)
        return {k: (sum(v) / len(v), len(v)) for k, v in groups.items()}

    def trace_histogram(self, skip: int = 0, take: Optional[int] = None
                        ) -> Counter:
        """Counts of trace signatures over the window.

        The signature of a purely local trace (e.g. Write-Through ``tr1``)
        is the empty tuple.
        """
        return Counter(
            tuple(r.signature) for r in self.records(skip, take)
        )

    def latency_stats(self, skip: int = 0, take: Optional[int] = None
                      ) -> Dict[str, float]:
        """Completion-latency statistics over the window.

        Latency is ``complete_time - issue_time`` in simulation time units
        (local operations complete instantly; blocking distributed
        operations pay round trips plus any queueing behind earlier
        operations).  Returns mean, p50, p95, p99 and max — not a paper
        metric (the paper counts cost only) but essential for using the
        simulator as a systems substrate.
        """
        recs = self.records(skip, take)
        if not recs:
            raise ValueError("no completed operations in the window")
        lat = sorted(r.complete_time - r.issue_time for r in recs)
        n = len(lat)

        def pct(q: float) -> float:
            return lat[min(n - 1, int(q * n))]

        return {
            "mean": sum(lat) / n,
            "p50": pct(0.50),
            "p95": pct(0.95),
            "p99": pct(0.99),
            "max": lat[-1],
        }

    def op(self, op_id: int) -> OpRecord:
        """Record for one operation id."""
        return self._ops[op_id]

    # ------------------------------------------------------------------
    # registry publication
    # ------------------------------------------------------------------

    def publish(self, registry, skip: int = 0, take: Optional[int] = None,
                window: Optional[int] = None, prefix: str = "sim") -> None:
        """Publish a snapshot into a :class:`repro.obs.MetricsRegistry`.

        Per-operation latency and cost go into histograms (optionally a
        sliding window of the last ``window`` operations); the ``acc``
        cost shares and subsystem counters go into gauges.  Everything
        is namespaced under ``prefix``.
        """
        recs = self.records(skip, take)
        registry.gauge(prefix + ".ops_completed",
                       "completed operations in the window").set(len(recs))
        registry.gauge(prefix + ".unattributed_cost",
                       "cost of messages with no operation").set(self.unattributed_cost)
        lat = registry.histogram(prefix + ".op_latency",
                                 "completion latency (simulated time)",
                                 window=window)
        cost = registry.histogram(prefix + ".op_cost",
                                  "communication cost per operation (acc)",
                                  window=window)
        for r in recs:
            lat.observe(r.complete_time - r.issue_time)
            cost.observe(r.cost)
        if recs:
            for share, value in self.average_cost_breakdown(skip, take).items():
                registry.gauge(prefix + ".acc." + share,
                               "steady-state %s cost share" % share).set(value)
        suppressed = registry.counter(
            prefix + ".reliable.suppressed_violations",
            "retry-budget delivery violations suppressed because the "
            "destination was quarantined or crashed")
        delta = self.partition.suppressed_violations - suppressed.value
        if delta > 0:
            suppressed.inc(delta)
        for group, stats in (("reliability", self.reliability),
                             ("recovery", self.recovery),
                             ("partition", self.partition),
                             ("reconfig", self.reconfig),
                             ("cache", self.cache)):
            for f in fields(stats):
                value = getattr(stats, f.name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    registry.gauge("%s.%s.%s" % (prefix, group, f.name),
                                   f.name.replace("_", " ")).set(value)
