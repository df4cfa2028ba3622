"""Reliable exactly-once FIFO delivery over a faulty wire.

:class:`ReliableNetwork` presents the same interface as
:class:`~repro.sim.channel.Network` (``attach`` / ``send`` /
``messages_sent``) but guarantees, for any drop rate below 1 within the
retry budget, that every protocol message is delivered **exactly once, in
per-channel FIFO order** — which is the contract the paper's protocol
processes assume (Section 2).  The mechanism is the classic positive-ack
transport:

* every inter-node protocol message is wrapped in a :class:`Frame` carrying
  a dense per-channel sequence number;
* the receiver acknowledges every data frame (acks are bare tokens, cost
  1) by posting the received frame back to the sender's ack receiver, so
  an ack builds no frame; it suppresses duplicates and parks out-of-order
  frames in a reorder buffer until the FIFO gap closes;
* the sender retransmits on an acknowledgement timeout with exponential
  backoff, up to a configurable retry budget.  The pending send is its
  own retry timer, a cancellable :class:`~repro.sim.engine.TimerHandle`
  armed directly on the scheduler and cancelled when the ack arrives.

When the retry budget runs out the send is abandoned — the run **degrades
gracefully instead of hanging**: the failure is counted in
``Metrics.reliability.delivery_failures`` (with the operation id), the
channel past the hole stays wedged (FIFO cannot be preserved across a lost
message), and :meth:`DSMSystem.run_workload` reports the affected
operations as incomplete rather than deadlocking.

**The wire.**  The transport owns the physical layer of the fault model
(docs/faults.md): with a :class:`~repro.sim.faults.FaultPlan` or a
:class:`~repro.sim.partition.PartitionPlan` a transmission may be
dropped, duplicated or delayed by jitter, and nothing is sent by or
delivered to a crashed node.  The transport compiles the plans' windows
into one :class:`~repro.sim.faults.FaultTimeline` at construction (a
fault-free transport builds none) and binds the global plan's rates and
RNG and the link plan's RNG.  Each transmission is one step,
:meth:`ReliableNetwork._put`, on one timeline segment: its down set
screens the source (a frame from a crashed node is not sent; its first
attempt was already charged at :meth:`~ReliableNetwork.send`, but a
suppressed retransmission costs nothing, and the retry timer tries again
after recovery), and it gives the link's ``(drop, duplicate, jitter)``
rates and the straggler factor of the two endpoints.  The step then
rolls every decision in a fixed order: global drop, then link drop
(skipped after a global drop); for a delivered transmission global
jitter, then link jitter; then global duplicate, then link duplicate
(skipped after a global duplicate); and jitter again for the duplicate.
A jitter ``j`` is drawn as ``j * rng.random()``, the same float
``rng.uniform(0.0, j)`` returns.  Each delay is ``latency`` plus the two
jitters, times the straggler factor (exactly 1.0 with no slow endpoint),
so a straggler consumes no draw.  Without a timeline every frame is
posted exactly ``latency`` ahead.

**The receivers.**  A transmission is posted handle-free
(:meth:`~repro.sim.engine.EventScheduler.post`) straight to the
receiver for its frame's kind — :meth:`~ReliableNetwork._on_data`,
``_on_ack``, ``_on_dgram`` or ``_on_dack`` — with the frame as the
argument, so an arrival dispatches on nothing.  Each receiver reads one
timeline segment and screens its node against the down set (a crashed
receiver loses the transmission), then the frame's epoch (traffic voided
by a view change is dropped), and acks on the same segment.  Untraced, it
calls the node's handler itself.  Jitter can reorder transmissions; the
data receiver's reorder buffer restores FIFO order, and a jittered frame
due before the scheduler lane's tail falls back to its heap by itself,
so the firing order is a single heap's.  An intra-node send is posted
straight to the node's handler: it is never faulty and has no frame.

Cost accounting: the *first* transmission of a protocol message is charged
exactly as on the fault-free fabric, at the cost its sender priced (same
cost class, same trace-signature entry).  Each retransmission charges that
same cost again, and an ack costs 1 (a bare token).  Retransmissions and
acks are charged through :meth:`Metrics.record_reliability_cost` — they
inflate ``acc`` but are tracked separately, so the reliability overhead
can be broken out (``Metrics.average_cost_breakdown``) and trace
signatures stay comparable to the paper's trace sets.  Intra-node sends
are free (the paper counts them as intra-node actions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..machines.message import Message
from ..util import backoff_delay, field_kwargs
from .channel import unattached
from .engine import EventScheduler, TimerHandle
from .faults import FaultPlan, FaultTimeline, Segment
from .metrics import Metrics
from .partition import PartitionPlan

__all__ = ["ReliabilityConfig", "DeliveryViolation", "Frame",
           "ReliableNetwork"]

#: the link-rate row of a source with no faulty outgoing link
_NO_LINKS: Dict[int, Tuple[float, float, float]] = {}


@dataclass(frozen=True, slots=True)
class ReliabilityConfig:
    """Tuning knobs of the reliable-delivery layer.

    Args:
        timeout: base acknowledgement timeout (simulation time units; the
            default is four round trips at unit latency).
        backoff: exponential backoff multiplier applied per retry.
        max_retries: retry budget per frame; when exhausted the send is
            abandoned and surfaced in metrics (graceful degradation).
    """

    timeout: float = 8.0
    backoff: float = 2.0
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def to_dict(self) -> dict:
        """A plain-JSON dict (sweep-engine cache keys, worker payloads)."""
        return {
            "timeout": float(self.timeout),
            "backoff": float(self.backoff),
            "max_retries": int(self.max_retries),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReliabilityConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` instead of being silently
        dropped.
        """
        return cls(**field_kwargs(cls, data, "ReliabilityConfig"))


@dataclass(frozen=True, slots=True)
class DeliveryViolation:
    """A send abandoned after its retry budget ran out.

    Structured sibling of
    :class:`~repro.sim.monitor.ConsistencyViolation` (same
    ``kind``/``obj``/``detail`` reporting surface) collected on
    :attr:`ReliableNetwork.violations` and surfaced on
    ``SimulationResult.violations`` — retry-budget exhaustion is a
    reliability-contract violation worth a structured record, not just a
    counter: the channel past the hole is wedged and quiescent coherence
    is no longer guaranteed.
    """

    src: int
    dst: int
    seq: int
    op_id: Optional[int]
    obj: Optional[int]
    attempts: int
    time: float
    kind: str = "delivery"

    @property
    def detail(self) -> str:
        """Human-readable one-liner (CLI output)."""
        op = f"op {self.op_id}" if self.op_id is not None else "unattributed"
        return (
            f"channel {self.src}->{self.dst} seq {self.seq} ({op}) "
            f"abandoned after {self.attempts} retries at t={self.time:g}"
        )


@dataclass(slots=True)
class Frame:
    """Transport envelope carried on the transport's wire.

    ``kind`` is ``"data"`` (FIFO) or ``"dgram"`` (the unordered
    datagram mode used by quorum protocols); the frame wraps a protocol
    :class:`Message`.  Each kind has its own receiver, and an ack is the
    received frame posted back to the sender's ack receiver, so the kind
    is a label for traces and tests.  ``epoch`` is the sender's
    view-change epoch (:meth:`ReliableNetwork.advance_epoch`); receivers
    drop frames from earlier epochs so traffic voided by a crash
    recovery cannot be delivered into the new view.

    A frame is never modified after construction: retransmissions,
    injected duplicates and acks carry the same object again.  It is not
    a frozen dataclass only because building one costs about five times
    as much (1.7 against 0.35 µs on an x86-64 host); being unfrozen with
    field equality, it is also unhashable.
    """

    kind: str
    src: int
    dst: int
    seq: int
    msg: Optional[Message] = None
    op_id: Optional[int] = None
    epoch: int = 0


class _PendingSend(TimerHandle):
    """Sender-side state for one unacknowledged data frame or datagram,
    and its own retry timer.

    The transport arms it itself (``EventScheduler._arm``) and it is its
    own callback: firing it hands it to the owner's timeout handler, so a
    send builds no other handle and no closure.  Firing or cancelling it
    (an ack, a hedge-loser cancellation, a view change) clears the
    callback and with it the reference to itself; a retransmission sets
    it again.  It keeps the first attempt's cost, which every
    retransmission charges again.
    """

    __slots__ = ("frame", "cost", "attempts", "_on_timeout")

    def __init__(self, scheduler: EventScheduler, frame: Frame, cost: float,
                 on_timeout: Callable[["_PendingSend"], None]):
        # the handle's own fields, set here without a super() call
        self._scheduler = scheduler
        self._callback = self
        self.frame = frame
        self.cost = cost
        self.attempts = 0
        self._on_timeout = on_timeout

    def __call__(self) -> None:
        self._on_timeout(self)


class ReliableNetwork:
    """Exactly-once FIFO delivery over a (possibly faulty) wire.

    Drop-in replacement for :class:`~repro.sim.channel.Network` from the
    protocol layer's point of view.  ``messages_sent`` counts *physical*
    transmissions (first attempts, retransmissions, acks and intra-node
    sends), which is what a real wire would carry.

    Args:
        scheduler: the discrete-event engine.
        latency: constant per-hop delay (must be positive).
        metrics: the run's accounting sink (``None`` counts nothing).
        faults: optional fault plan; ``None`` or :meth:`FaultPlan.none`
            keeps the wire fault-free.
        partitions: optional link-fault plan, layered over the global
            plan's decisions (a transmission is lost if *either* says so).
        config: the retry discipline.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: float = 1.0,
        metrics: Optional[Metrics] = None,
        faults: Optional[FaultPlan] = None,
        partitions: Optional[PartitionPlan] = None,
        config: Optional[ReliabilityConfig] = None,
    ):
        if latency <= 0:
            raise ValueError("latency must be positive for causal delivery")
        self.scheduler = scheduler
        self.latency = latency
        self.metrics = metrics
        self.config = config if config is not None else ReliabilityConfig()
        # a no-fault plan is normalized away: the wire is then fault-free
        #: the active fault plan (``None`` on a fault-free wire)
        self.faults = (faults if faults is not None and not faults.is_none
                       else None)
        #: the active link-fault plan (``None`` without partitions)
        self.partitions = (partitions
                           if partitions is not None and not partitions.is_none
                           else None)
        #: the plans' windows as one :class:`FaultTimeline` (``None`` on a
        #: fault-free wire); the failure detector, recovery and
        #: reconfiguration read it too
        self.timeline: Optional[FaultTimeline] = None
        if self.faults is not None or self.partitions is not None:
            self.timeline = FaultTimeline(self.faults, self.partitions)
        # the decisions' rates and streams, bound once (0 rolls nothing)
        plan = self.faults
        self._drop_rate = plan.drop_rate if plan is not None else 0.0
        self._duplicate_rate = (plan.duplicate_rate if plan is not None
                                else 0.0)
        self._jitter = plan.jitter if plan is not None else 0.0
        self._rng = plan._rng if plan is not None else None
        self._link_rng = (self.partitions._rng
                          if self.partitions is not None else None)
        # bound once: every transmission posts, every send arms its timer
        self._post = scheduler.post
        self._arm = scheduler._arm
        #: the first attempt's retry timeout (later ones back off)
        self._first_timeout = backoff_delay(self.config.timeout,
                                            self.config.backoff, 0)
        #: total physical transmissions (data, retransmissions, acks and
        #: intra-node sends)
        self.messages_sent = 0
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        #: structured retry-budget exhaustions (graceful degradation)
        self.violations: List[DeliveryViolation] = []
        #: live view of quarantined node ids (shared with the cluster view);
        #: sends addressed to them are absorbed instead of retried forever
        self.quarantined: Optional[Set[int]] = None
        #: current view-change epoch; frames stamped with an older epoch
        #: are dropped on receipt (see :meth:`advance_epoch`)
        self.epoch = 0
        # sender side: dense per-channel sequence numbers + in-flight frames
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._pending: Dict[Tuple[Tuple[int, int], int], _PendingSend] = {}
        # receiver side: next expected sequence + reorder buffer per channel
        self._expected: Dict[Tuple[int, int], int] = {}
        self._reorder: Dict[Tuple[int, int], Dict[int, Frame]] = {}
        # unordered datagram mode (quorum protocols): its own sequence
        # space, pending map and receiver dedup sets — no FIFO gating, so
        # an abandoned datagram never wedges the channel behind it.
        self._dgram_seq: Dict[Tuple[int, int], int] = {}
        self._dgram_pending: Dict[Tuple[Tuple[int, int], int],
                                  _PendingSend] = {}
        self._dgram_seen: Dict[Tuple[int, int], Set[int]] = {}

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._handlers[node_id] = handler

    def send(self, msg: Message, cost: float) -> float:
        """Send ``msg`` reliably at the sender-priced ``cost``; returns
        the first-attempt cost charged.

        Raises:
            RuntimeError: if ``msg.dst`` was never attached.
        """
        if msg.dst not in self._handlers:
            raise unattached(msg)
        if msg.src == msg.dst:
            return self._loop(msg)
        if self.quarantined and msg.dst in self.quarantined:
            return self._absorb(msg)
        channel = (msg.src, msg.dst)
        seq = self._send_seq.get(channel, 0) + 1
        self._send_seq[channel] = seq
        frame = Frame("data", msg.src, msg.dst, seq, msg, msg.op_id,
                      self.epoch)
        pending = _PendingSend(self.scheduler, frame, cost, self._on_timeout)
        self._pending[(channel, seq)] = pending
        if self.metrics is not None:
            # first attempt: charged exactly like the fault-free fabric
            # (cost class + trace-signature entry).
            self.metrics.record_message(msg, cost)
        self._put(frame, self._on_data, msg.src, msg.dst)
        self._arm(self._first_timeout, pending)
        return cost

    def send_unordered(self, msg: Message, cost: float,
                       quorum: bool = False, hedge: bool = False) -> float:
        """Send ``msg`` as an at-least-once *unordered* datagram.

        Quorum-protocol transport: retransmitted on a dack timeout like a
        data frame, but delivered at once (no FIFO gating, duplicates
        suppressed by sequence set), and **silently abandoned** when the
        retry budget runs out — counted in
        ``ReliabilityStats.dgram_abandoned``, never a
        :class:`DeliveryViolation`: the protocol's quorum re-selection
        owns liveness toward an unreachable replica.  ``quorum=True``
        marks a re-selection re-broadcast, charged to the ``quorum`` cost
        share; ``hedge=True`` a hedge leg (:mod:`repro.sim.hedge`),
        charged to the ``hedge`` share (neither adds a trace-signature
        entry, so signatures stay comparable to fault-free runs).

        Raises:
            RuntimeError: if ``msg.dst`` was never attached.
        """
        if msg.dst not in self._handlers:
            raise unattached(msg)
        if msg.src == msg.dst:
            return self._loop(msg)
        if self.quarantined and msg.dst in self.quarantined:
            return self._absorb(msg)
        channel = (msg.src, msg.dst)
        seq = self._dgram_seq.get(channel, 0) + 1
        self._dgram_seq[channel] = seq
        frame = Frame("dgram", msg.src, msg.dst, seq, msg, msg.op_id,
                      self.epoch)
        pending = _PendingSend(self.scheduler, frame, cost,
                               self._on_dgram_timeout)
        self._dgram_pending[(channel, seq)] = pending
        if self.metrics is not None:
            if hedge:
                self.metrics.record_hedge_cost(msg.op_id, cost)
            elif quorum:
                self.metrics.record_quorum_cost(msg.op_id, cost)
            else:
                self.metrics.record_message(msg, cost)
        self._put(frame, self._on_dgram, msg.src, msg.dst)
        self._arm(self._first_timeout, pending)
        return cost

    def cancel_dgrams(self, src: int, op_id: int) -> int:
        """Void the pending datagram retries ``src`` holds for ``op_id``.

        Hedge-loser cancellation (:mod:`repro.sim.hedge`): once a quorum
        phase finishes, the losing legs' unacknowledged datagrams stop
        retransmitting — their retry timers are cancelled and the pending
        entries dropped, so an unreachable straggler no longer costs
        retransmission traffic for a phase that already won.  Frames
        already on the wire still arrive and are dacked; their replies
        are filtered by the phase generation counter like any stale
        traffic.  Returns the number of sends cancelled.
        """
        stale = [key for key, pending in self._dgram_pending.items()
                 if key[0][0] == src and pending.frame.op_id == op_id]
        for key in stale:
            self._dgram_pending.pop(key).cancel()
        return len(stale)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    def _loop(self, msg: Message) -> float:
        """An intra-node send: free, never faulty, posted straight to the
        node's handler."""
        self.messages_sent += 1
        self._post(self.latency, self._handlers[msg.dst], msg)
        return 0.0

    def _absorb(self, msg: Message) -> float:
        """Absorb a send to a quarantined destination (no cost, no
        retries): quarantine exists for this — the rejoin resync replays
        what the node missed."""
        if self.metrics is not None:
            self.metrics.partition.sends_absorbed += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event("absorbed", msg.op_id, src=msg.src,
                                dst=msg.dst, detail="quarantined dst")
        return 0.0

    def _put(self, frame: Frame, receiver: Callable[[Frame], None],
             src: int, dst: int, segment: Optional[Segment] = None,
             retransmit: Optional[float] = None) -> None:
        """Put one transmission of ``frame`` on the wire from ``src`` to
        ``dst`` (an ack's path is its frame's reversed) for ``receiver``.

        ``segment`` is the timeline segment at ``now`` when the caller has
        read it already (a receiver acking); otherwise it is read here.
        ``retransmit`` is the cost a retransmission charges, once the
        frame has left a live source.  The fault decisions are rolled in
        the module docstring's order.
        """
        timeline = self.timeline
        if timeline is not None:
            if segment is None:
                segment = timeline.at(self.scheduler.now)
            if src in segment[0]:
                # the interface is dead: nothing leaves and a retransmission
                # is not charged (a first attempt was, at the send); the
                # retry timer tries again after recovery.
                self._fault("down_src", "sends_suppressed")
                return
        if retransmit is not None and self.metrics is not None:
            self.metrics.record_reliability_cost(
                frame.op_id, retransmit, kind="retransmit")
        self.messages_sent += 1
        if timeline is None:
            self._post(self.latency, receiver, frame)
            return
        _down, slow, links = segment
        # the link's (drop, duplicate, jitter) rates; None when no link
        # fault is active on src -> dst (every rate is then 0)
        link = links.get(src, _NO_LINKS).get(dst) if links else None
        # a link is as slow as its slowest endpoint (no draw)
        factor = (max(slow.get(src, 1.0), slow.get(dst, 1.0)) if slow
                  else 1.0)
        rng = self._rng
        # the global plan rolls first; a loss there short-circuits the
        # link roll (both streams are private, so this stays
        # deterministic).  A full link cut (rate >= 1) consumes no draw.
        rate = self._drop_rate
        if rate and rng.random() < rate:
            dropped = True
        elif link is None or link[0] <= 0.0:
            dropped = False
        else:
            rate = link[0]
            dropped = rate >= 1.0 or self._link_rng.random() < rate
        if dropped:
            self._fault("drop", "drops")
        else:
            # latency plus global then link jitter, times the straggler
            # factor (1.0 leaves it exact)
            delay = self.latency
            if self._jitter:
                delay += self._jitter * rng.random()
            if link is not None and link[2] > 0.0:
                delay += link[2] * self._link_rng.random()
            self._post(delay * factor, receiver, frame)
        rate = self._duplicate_rate
        if rate and rng.random() < rate:
            duplicated = True
        else:
            duplicated = (link is not None and link[1] > 0.0
                          and self._link_rng.random() < link[1])
        if duplicated:
            self._fault("duplicate", "duplicates_injected")
            delay = self.latency
            if self._jitter:
                delay += self._jitter * rng.random()
            if link is not None and link[2] > 0.0:
                delay += link[2] * self._link_rng.random()
            self._post(delay * factor, receiver, frame)

    def _fault(self, event: str, stat: str) -> None:
        """Count one injected fault in the ``stat`` field of the
        reliability stats and trace it as ``fault.<event>``."""
        metrics = self.metrics
        if metrics is None:
            return
        tracer = metrics.tracer
        if tracer is not None:
            tracer.system_event("fault." + event)
        stats = metrics.reliability
        setattr(stats, stat, getattr(stats, stat) + 1)

    def _retry(self, pending: _PendingSend,
               receiver: Callable[[Frame], None]) -> None:
        """Retransmit ``pending`` and re-arm it, backed off."""
        pending.attempts += 1
        if self.metrics is not None:
            self.metrics.reliability.retransmissions += 1
        frame = pending.frame
        self._put(frame, receiver, frame.src, frame.dst,
                  retransmit=pending.cost)
        config = self.config
        pending._callback = pending  # fired: active again
        self._arm(backoff_delay(config.timeout, config.backoff,
                                pending.attempts), pending)

    def _on_timeout(self, pending: _PendingSend) -> None:
        if pending.attempts < self.config.max_retries:
            self._retry(pending, self._on_data)
            return
        # retry budget exhausted: abandon the send and surface it.
        frame = pending.frame
        del self._pending[((frame.src, frame.dst), frame.seq)]
        timeline = self.timeline
        # abandonment toward a crashed or quarantined node is the
        # *intended* degradation (recovery resyncs it at rejoin): only
        # one toward a live, in-view node violates the contract.
        handled = (
            (timeline is not None
             and frame.dst in timeline.at(self.scheduler.now)[0])
            or (self.quarantined is not None
                and frame.dst in self.quarantined)
        )
        if not handled:
            self.violations.append(DeliveryViolation(
                src=frame.src, dst=frame.dst, seq=frame.seq,
                op_id=frame.op_id, obj=frame.msg.token.object_name,
                attempts=pending.attempts, time=self.scheduler.now,
            ))
        elif self.metrics is not None:
            # expected unreachability (crashed or quarantined dst):
            # the violation is suppressed, but visibly so.
            self.metrics.partition.suppressed_violations += 1
        if self.metrics is not None:
            stats = self.metrics.reliability
            stats.delivery_failures += 1
            if frame.op_id is not None:
                stats.failed_op_ids.append(frame.op_id)
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event(
                    "delivery_abandoned", frame.op_id,
                    src=frame.src, dst=frame.dst,
                    detail="seq %d after %d retries"
                    % (frame.seq, pending.attempts),
                )

    def _on_dgram_timeout(self, pending: _PendingSend) -> None:
        if pending.attempts < self.config.max_retries:
            self._retry(pending, self._on_dgram)
            return
        # budget exhausted: abandon *silently* — the quorum layer
        # re-selects around the unreachable replica; no violation, no
        # delivery failure, no wedged channel.
        frame = pending.frame
        del self._dgram_pending[((frame.src, frame.dst), frame.seq)]
        if self.metrics is not None:
            self.metrics.reliability.dgram_abandoned += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event(
                    "dgram_abandoned", frame.op_id,
                    src=frame.src, dst=frame.dst,
                    detail="seq %d after %d retries"
                    % (frame.seq, pending.attempts),
                )

    # ------------------------------------------------------------------
    # receiver side: one receiver per frame kind, posted with the frame.
    # An ack is the received frame posted back, on the reversed path; its
    # epoch is the frame's, as a receiver drops older epochs before acking.
    # ------------------------------------------------------------------

    def _stale(self, frame: Frame, src: int, dst: int) -> None:
        """Drop ``frame``, arriving on ``src -> dst`` from an earlier
        epoch: voided traffic from a previous view is never delivered
        or acked."""
        if self.metrics is not None:
            self.metrics.recovery.stale_frames_dropped += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event("stale_frame_dropped", frame.op_id,
                                src=src, dst=dst,
                                detail="epoch %d < %d"
                                % (frame.epoch, self.epoch))

    def _on_ack(self, frame: Frame) -> None:
        timeline = self.timeline
        if (timeline is not None
                and frame.src in timeline.at(self.scheduler.now)[0]):
            # the receiver is crashed: the transmission is lost.
            self._fault("down_dst", "drops")
        elif frame.epoch < self.epoch:
            self._stale(frame, frame.dst, frame.src)
        else:
            pending = self._pending.pop(((frame.src, frame.dst), frame.seq),
                                        None)
            if pending is not None:
                pending.cancel()

    def _on_dack(self, frame: Frame) -> None:
        timeline = self.timeline
        if (timeline is not None
                and frame.src in timeline.at(self.scheduler.now)[0]):
            self._fault("down_dst", "drops")
        elif frame.epoch < self.epoch:
            self._stale(frame, frame.dst, frame.src)
        else:
            pending = self._dgram_pending.pop(
                ((frame.src, frame.dst), frame.seq), None)
            if pending is not None:
                pending.cancel()

    def _on_dgram(self, frame: Frame) -> None:
        timeline = self.timeline
        segment = None
        if timeline is not None:
            segment = timeline.at(self.scheduler.now)
            if frame.dst in segment[0]:
                self._fault("down_dst", "drops")
                return
        if frame.epoch < self.epoch:
            self._stale(frame, frame.src, frame.dst)
            return
        # always dack, even duplicates: the previous dack may be lost.
        metrics = self.metrics
        if metrics is not None:
            metrics.reliability.acks += 1
            metrics.record_reliability_cost(frame.op_id, 1.0, kind="ack")
        self._put(frame, self._on_dack, frame.dst, frame.src, segment)
        seen = self._dgram_seen.setdefault((frame.src, frame.dst), set())
        if frame.seq in seen:
            self._suppress_duplicate(frame)
            return
        seen.add(frame.seq)
        # unordered: deliver immediately, no FIFO gating.
        (self._handlers[frame.dst] if metrics is None or metrics.tracer is None
         else self._deliver)(frame.msg)

    def _on_data(self, frame: Frame) -> None:
        timeline = self.timeline
        segment = None
        if timeline is not None:
            segment = timeline.at(self.scheduler.now)
            if frame.dst in segment[0]:
                # the receiver is crashed: the transmission is lost.
                self._fault("down_dst", "drops")
                return
        if frame.epoch < self.epoch:
            self._stale(frame, frame.src, frame.dst)
            return
        # always ack, even duplicates: the previous ack may have been
        # lost.  The ack is a bare token: cost 1.
        metrics = self.metrics
        if metrics is not None:
            metrics.reliability.acks += 1
            metrics.record_reliability_cost(frame.op_id, 1.0, kind="ack")
        self._put(frame, self._on_ack, frame.dst, frame.src, segment)
        channel = (frame.src, frame.dst)
        expected = self._expected.get(channel, 1)
        buffer = self._reorder.get(channel)
        if frame.seq < expected or (buffer and frame.seq in buffer):
            self._suppress_duplicate(frame)
            return
        if frame.seq > expected:
            if metrics is not None:
                metrics.reliability.out_of_order_held += 1
                tracer = metrics.tracer
                if tracer is not None:
                    tracer.op_event("reorder_hold", frame.op_id,
                                    src=frame.src, dst=frame.dst,
                                    detail="seq %d expected %d"
                                    % (frame.seq, expected))
            self._reorder.setdefault(channel, {})[frame.seq] = frame
            return
        # in order: deliver, then drain the reorder buffer behind it.
        deliver = (self._handlers[frame.dst]
                   if metrics is None or metrics.tracer is None
                   else self._deliver)
        deliver(frame.msg)
        expected += 1
        while buffer and expected in buffer:
            deliver(buffer.pop(expected).msg)
            expected += 1
        self._expected[channel] = expected

    def _suppress_duplicate(self, frame: Frame) -> None:
        if self.metrics is not None:
            self.metrics.reliability.duplicates_suppressed += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event("dup_suppressed", frame.op_id,
                                src=frame.src, dst=frame.dst)

    def _deliver(self, msg: Message) -> None:
        """Deliver ``msg`` after emitting its "deliver" trace event: the
        traced route (untraced, a receiver calls the handler itself)."""
        self.metrics.tracer.op_event("deliver", msg.op_id, src=msg.src,
                                     dst=msg.dst,
                                     detail=msg.token.type.value)
        self._handlers[msg.dst](msg)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Unacknowledged data frames currently awaiting an ack or retry."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # view changes (crash recovery)
    # ------------------------------------------------------------------

    def advance_epoch(self) -> List[Frame]:
        """Start a new view: void all in-flight transport state.

        Bumps :attr:`epoch` (so frames already on the wire — including
        jitter-delayed, duplicated or retransmitted copies — are dropped on
        receipt), cancels every pending retry timer and clears the
        sequence-number, pending and reorder state of *all* channels.  The
        recovery subsystem re-drives in-flight operations from scratch in
        the new view, so exactly-once delivery is preserved end to end even
        though the transport forgets its history.

        Returns the voided undelivered data frames — the sender-side
        unacknowledged ones *and* the frames already acked and parked in a
        reorder buffer behind a FIFO gap (never handed to a protocol
        process either: dropping them would lose a completed
        fire-and-forget write).  The caller absorbs the completed writes
        among them into the recovery write log, since they cannot be
        re-driven.  Frames are returned per channel in sequence order,
        channels sorted, so absorption respects per-channel FIFO.
        """
        self.epoch += 1
        by_channel: Dict[Tuple[int, int], Dict[int, Frame]] = {}
        for pending in self._pending.values():
            pending.cancel()
            frame = pending.frame
            by_channel.setdefault((frame.src, frame.dst), {})[
                frame.seq] = frame
        for channel, buffer in self._reorder.items():
            by_channel.setdefault(channel, {}).update(buffer)
        voided = [
            frame
            for channel in sorted(by_channel)
            for _, frame in sorted(by_channel[channel].items())
        ]
        if self.metrics is not None:
            self.metrics.recovery.frames_voided += len(voided)
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.system_event(
                    "epoch_advance",
                    detail="epoch %d voided %d frames"
                    % (self.epoch, len(voided)),
                )
        for pending in self._dgram_pending.values():
            pending.cancel()
        self._pending.clear()
        self._send_seq.clear()
        self._expected.clear()
        self._reorder.clear()
        self._dgram_pending.clear()
        self._dgram_seq.clear()
        self._dgram_seen.clear()
        return voided
