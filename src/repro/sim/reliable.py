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
* the receiver acknowledges every data frame (acks are bare tokens, cost 1),
  suppresses duplicates, and parks out-of-order frames in a reorder buffer
  until the FIFO gap closes;
* the sender retransmits on an acknowledgement timeout with exponential
  backoff, up to a configurable retry budget; the retry timer is a
  cancellable :class:`~repro.sim.engine.TimerHandle`, cancelled when the
  ack arrives.

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
:meth:`ReliableNetwork._put`, which reads one timeline segment: its down
set screens the source (a frame from a crashed node is not sent; its
first attempt was already charged at :meth:`~ReliableNetwork.send`, but
a suppressed retransmission costs nothing, and the retry timer tries
again after recovery), and it gives the link's ``(drop, duplicate,
jitter)`` rates and the straggler factor of the two endpoints.  The step then rolls every decision in a fixed
order: global drop, then link drop (skipped after a global drop); for a
delivered transmission global jitter, then link jitter; then global
duplicate, then link duplicate (skipped after a global duplicate); and
jitter again for the duplicate.  A jitter ``j`` is drawn as
``j * rng.random()``, the same float ``rng.uniform(0.0, j)`` returns.
Each delay is ``latency`` plus the two jitters, times the straggler
factor (exactly 1.0 with no slow endpoint), so a straggler consumes no
draw.  Without a timeline every frame is posted exactly ``latency``
ahead.

**The receivers.**  A transmission is posted handle-free
(:meth:`~repro.sim.engine.EventScheduler.post`) straight to the
receiver for its frame's kind — :meth:`~ReliableNetwork._on_data`,
``_on_ack``, ``_on_dgram`` or ``_on_dack`` — with the frame as the
argument, so an arrival dispatches on nothing.  Each receiver first
screens the destination against the timeline's down set at its own
time (a crashed receiver loses the transmission) and then the frame's
epoch (traffic voided by a view change is dropped).  Jitter can reorder
transmissions; the data receiver's sequence numbers and reorder buffer
restore FIFO order, and a jittered frame due before the scheduler lane's
tail falls back to its heap by itself, so the firing order is the one a
single heap would give.  An intra-node send is posted straight to the
node's handler: it is never faulty and carries no frame.

Cost accounting: the *first* transmission of a protocol message is charged
exactly as on the fault-free fabric, at the cost its sender priced (same
cost class, same trace-signature entry).  Each retransmission charges that
same cost again, and an ack costs 1 (a bare token).  Retransmissions and
acks are charged through
:meth:`Metrics.record_reliability_cost` — they inflate ``acc`` but are
tracked separately, so the reliability overhead can be broken out
(``Metrics.average_cost_breakdown``) and trace signatures stay comparable
to the paper's trace sets.  Intra-node sends are free (the paper counts
them as intra-node actions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..machines.message import Message
from ..util import backoff_delay, field_kwargs
from .engine import EventScheduler, TimerHandle
from .faults import FaultPlan, FaultTimeline
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

    ``kind`` is ``"data"`` (wraps a protocol :class:`Message`), ``"ack"``
    (bare acknowledgement token) or ``"dgram"`` / ``"dack"`` (the
    unordered datagram mode used by quorum protocols); each kind has its
    own receiver, which the wire posts with the frame, so the kind is a
    label for traces and tests.  ``epoch`` is the sender's view-change
    epoch (:meth:`ReliableNetwork.advance_epoch`); receivers drop frames
    from earlier epochs so traffic voided by a crash recovery cannot be
    delivered into the new view.

    A frame is never modified after construction: retransmissions and
    injected duplicates deliver the same object again.  It is not a
    frozen dataclass only because building one costs about five times
    as much (1.7 against 0.35 µs on an x86-64 host); being unfrozen
    with field equality, it is also unhashable.
    """

    kind: str
    src: int
    dst: int
    seq: int
    msg: Optional[Message] = None
    op_id: Optional[int] = None
    epoch: int = 0


class _PendingSend:
    """Sender-side state for one unacknowledged data frame or datagram.

    The pending send is its own retry-timer callback: calling it hands its
    ``(channel, seq)`` key to the owner's timeout handler, so arming a
    timer builds no closure.  It keeps the first attempt's cost, which
    every retransmission charges again.
    """

    __slots__ = ("frame", "cost", "attempts", "timer", "key",
                 "_on_timeout")

    def __init__(self, frame: Frame, cost: float,
                 on_timeout: Callable[[Tuple[Tuple[int, int], int]], None]):
        self.frame = frame
        self.cost = cost
        self.attempts = 0
        self.timer: Optional[TimerHandle] = None
        self.key = ((frame.src, frame.dst), frame.seq)
        self._on_timeout = on_timeout

    def __call__(self) -> None:
        self._on_timeout(self.key)


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
        # bound once: every transmission posts, every send arms a timer
        self._post = scheduler.post
        self._schedule = scheduler.schedule
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
        self._reorder: Dict[Tuple[int, int], Dict[int, Message]] = {}
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
            raise self._unattached(msg)
        if msg.src == msg.dst:
            return self._loop(msg)
        if self.quarantined and msg.dst in self.quarantined:
            return self._absorb(msg)
        channel = (msg.src, msg.dst)
        seq = self._send_seq.get(channel, 0) + 1
        self._send_seq[channel] = seq
        frame = Frame("data", msg.src, msg.dst, seq, msg, msg.op_id,
                      self.epoch)
        pending = _PendingSend(frame, cost, self._on_timeout)
        self._pending[pending.key] = pending
        if self.metrics is not None:
            # first attempt: charged exactly like the fault-free fabric
            # (cost class + trace-signature entry).
            self.metrics.record_message(msg, cost)
        self._put(frame, self._on_data)
        pending.timer = self._schedule(self._first_timeout, pending)
        return cost

    def send_unordered(self, msg: Message, cost: float,
                       quorum: bool = False, hedge: bool = False) -> float:
        """Send ``msg`` as an at-least-once *unordered* datagram.

        Quorum-protocol transport: the datagram is retransmitted on a
        dack timeout like a data frame, but the receiver delivers it
        immediately (no FIFO gating, duplicates suppressed by sequence
        set), and when the retry budget runs out the send is **silently
        abandoned** — counted in ``ReliabilityStats.dgram_abandoned``,
        never a :class:`DeliveryViolation`: liveness toward an
        unreachable replica is owned by the protocol's quorum
        re-selection, not by the transport.  ``quorum=True`` marks a
        re-selection re-broadcast, charged to the ``quorum`` cost share
        instead of the protocol share; ``hedge=True`` marks a hedge leg
        (:mod:`repro.sim.hedge`), charged to the ``hedge`` share (in
        both cases no trace-signature entry, so signatures stay
        comparable to the fault-free runs).

        Raises:
            RuntimeError: if ``msg.dst`` was never attached.
        """
        if msg.dst not in self._handlers:
            raise self._unattached(msg)
        if msg.src == msg.dst:
            return self._loop(msg)
        if self.quarantined and msg.dst in self.quarantined:
            return self._absorb(msg)
        channel = (msg.src, msg.dst)
        seq = self._dgram_seq.get(channel, 0) + 1
        self._dgram_seq[channel] = seq
        frame = Frame("dgram", msg.src, msg.dst, seq, msg, msg.op_id,
                      self.epoch)
        pending = _PendingSend(frame, cost, self._on_dgram_timeout)
        self._dgram_pending[pending.key] = pending
        if self.metrics is not None:
            if hedge:
                self.metrics.record_hedge_cost(msg.op_id, cost)
            elif quorum:
                self.metrics.record_quorum_cost(msg.op_id, cost)
            else:
                self.metrics.record_message(msg, cost)
        self._put(frame, self._on_dgram)
        pending.timer = self._schedule(self._first_timeout, pending)
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
            pending = self._dgram_pending.pop(key)
            if pending.timer is not None:
                pending.timer.cancel()
        return len(stale)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------

    @staticmethod
    def _unattached(msg: Message) -> RuntimeError:
        return RuntimeError(
            f"cannot send {type(msg).__name__} from node {msg.src}: "
            f"destination node {msg.dst} is not attached to the network"
        )

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
             retransmit: Optional[float] = None) -> None:
        """Put one transmission of ``frame`` on the wire for ``receiver``.

        ``retransmit`` is the cost a retransmission charges, once the
        frame has left a live source.  The fault decisions are rolled in
        the module docstring's order.
        """
        timeline = self.timeline
        if timeline is not None:
            down, slow, links = timeline.at(self.scheduler.now)
            if frame.src in down:
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
        src = frame.src
        dst = frame.dst
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
            self._post(self._delay(link, factor), receiver, frame)
        rate = self._duplicate_rate
        if rate and rng.random() < rate:
            duplicated = True
        else:
            duplicated = (link is not None and link[1] > 0.0
                          and self._link_rng.random() < link[1])
        if duplicated:
            self._fault("duplicate", "duplicates_injected")
            self._post(self._delay(link, factor), receiver, frame)

    def _delay(self, link: Optional[Tuple[float, float, float]],
               factor: float) -> float:
        """One faulty transmission's delay: latency plus global then link
        jitter, times the straggler factor (1.0 leaves it exact)."""
        delay = self.latency
        if self._jitter:
            delay += self._jitter * self._rng.random()
        if link is not None and link[2] > 0.0:
            delay += link[2] * self._link_rng.random()
        return delay * factor

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
        """Retransmit ``pending`` and re-arm its timer, backed off."""
        pending.attempts += 1
        if self.metrics is not None:
            self.metrics.reliability.retransmissions += 1
        self._put(pending.frame, receiver, pending.cost)
        config = self.config
        pending.timer = self._schedule(
            backoff_delay(config.timeout, config.backoff, pending.attempts),
            pending)

    def _on_timeout(self, key: Tuple[Tuple[int, int], int]) -> None:
        pending = self._pending.get(key)
        if pending is None:  # pragma: no cover - acked timers are cancelled
            return
        if pending.attempts >= self.config.max_retries:
            # retry budget exhausted: abandon the send and surface it.
            del self._pending[key]
            frame = pending.frame
            timeline = self.timeline
            handled = (
                # abandonment toward a crashed or quarantined node is the
                # *intended* degradation — the recovery subsystem resyncs
                # the node at rejoin — so only exhaustion toward a live,
                # in-view destination is a reliability-contract violation.
                (timeline is not None
                 and frame.dst in timeline.at(self.scheduler.now)[0])
                or (self.quarantined is not None
                    and frame.dst in self.quarantined)
            )
            if not handled:
                obj = (frame.msg.token.object_name
                       if frame.msg is not None else None)
                self.violations.append(DeliveryViolation(
                    src=frame.src, dst=frame.dst, seq=frame.seq,
                    op_id=frame.op_id, obj=obj, attempts=pending.attempts,
                    time=self.scheduler.now,
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
            return
        self._retry(pending, self._on_data)

    def _on_dgram_timeout(self, key: Tuple[Tuple[int, int], int]) -> None:
        pending = self._dgram_pending.get(key)
        if pending is None:  # pragma: no cover - dacked timers are cancelled
            return
        if pending.attempts >= self.config.max_retries:
            # budget exhausted: abandon *silently* — the quorum layer
            # re-selects around the unreachable replica; no violation,
            # no delivery failure, no wedged channel.
            del self._dgram_pending[key]
            if self.metrics is not None:
                self.metrics.reliability.dgram_abandoned += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    frame = pending.frame
                    tracer.op_event(
                        "dgram_abandoned", frame.op_id,
                        src=frame.src, dst=frame.dst,
                        detail="seq %d after %d retries"
                        % (frame.seq, pending.attempts),
                    )
            return
        self._retry(pending, self._on_dgram)

    # ------------------------------------------------------------------
    # receiver side: one receiver per frame kind, posted with the frame
    # ------------------------------------------------------------------

    def _discard(self, frame: Frame) -> None:
        """Lose an arriving ``frame``: its receiver is down, or the frame
        is from an earlier epoch."""
        timeline = self.timeline
        if (timeline is not None
                and frame.dst in timeline.at(self.scheduler.now)[0]):
            # the receiver is crashed: the transmission is lost.
            self._fault("down_dst", "drops")
            return
        # voided traffic from a previous view: never deliver or ack it.
        if self.metrics is not None:
            self.metrics.recovery.stale_frames_dropped += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event("stale_frame_dropped", frame.op_id,
                                src=frame.src, dst=frame.dst,
                                detail="epoch %d < %d"
                                % (frame.epoch, self.epoch))

    def _on_ack(self, frame: Frame) -> None:
        timeline = self.timeline
        if ((timeline is not None
                and frame.dst in timeline.at(self.scheduler.now)[0])
                or frame.epoch < self.epoch):
            self._discard(frame)
            return
        # the acked data channel is the reverse of the ack's path.
        pending = self._pending.pop(((frame.dst, frame.src), frame.seq),
                                    None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _on_dack(self, frame: Frame) -> None:
        timeline = self.timeline
        if ((timeline is not None
                and frame.dst in timeline.at(self.scheduler.now)[0])
                or frame.epoch < self.epoch):
            self._discard(frame)
            return
        pending = self._dgram_pending.pop(
            ((frame.dst, frame.src), frame.seq), None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _on_dgram(self, frame: Frame) -> None:
        timeline = self.timeline
        if ((timeline is not None
                and frame.dst in timeline.at(self.scheduler.now)[0])
                or frame.epoch < self.epoch):
            self._discard(frame)
            return
        # always dack, even duplicates: the previous dack may be lost.
        self._send_ack(frame, "dack", self._on_dack)
        seen = self._dgram_seen.setdefault((frame.src, frame.dst), set())
        if frame.seq in seen:
            self._suppress_duplicate(frame)
            return
        seen.add(frame.seq)
        # unordered: deliver immediately, no FIFO gating.
        self._deliver(frame.dst, frame.msg)

    def _on_data(self, frame: Frame) -> None:
        timeline = self.timeline
        if ((timeline is not None
                and frame.dst in timeline.at(self.scheduler.now)[0])
                or frame.epoch < self.epoch):
            self._discard(frame)
            return
        # always ack, even duplicates: the previous ack may have been lost.
        self._send_ack(frame, "ack", self._on_ack)
        channel = (frame.src, frame.dst)
        expected = self._expected.get(channel, 1)
        buffer = self._reorder.get(channel)
        if frame.seq < expected or (buffer and frame.seq in buffer):
            self._suppress_duplicate(frame)
            return
        if frame.seq > expected:
            if self.metrics is not None:
                self.metrics.reliability.out_of_order_held += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    tracer.op_event("reorder_hold", frame.op_id,
                                    src=frame.src, dst=frame.dst,
                                    detail="seq %d expected %d"
                                    % (frame.seq, expected))
            self._reorder.setdefault(channel, {})[frame.seq] = frame.msg
            return
        # in order: deliver, then drain the reorder buffer behind it.
        self._deliver(frame.dst, frame.msg)
        expected += 1
        while buffer and expected in buffer:
            self._deliver(frame.dst, buffer.pop(expected))
            expected += 1
        self._expected[channel] = expected

    def _suppress_duplicate(self, frame: Frame) -> None:
        if self.metrics is not None:
            self.metrics.reliability.duplicates_suppressed += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.op_event("dup_suppressed", frame.op_id,
                                src=frame.src, dst=frame.dst)

    def _deliver(self, dst: int, msg: Message) -> None:
        metrics = self.metrics
        tracer = metrics.tracer if metrics is not None else None
        if tracer is not None:
            tracer.op_event("deliver", msg.op_id, src=msg.src, dst=dst,
                            detail=msg.token.type.value)
        self._handlers[dst](msg)

    def _send_ack(self, data: Frame, kind: str,
                  receiver: Callable[[Frame], None]) -> None:
        ack = Frame(kind, data.dst, data.src, data.seq, None, data.op_id,
                    self.epoch)
        if self.metrics is not None:
            self.metrics.reliability.acks += 1
            self.metrics.record_reliability_cost(ack.op_id, 1.0, kind="ack")
        # an ack is a bare token: cost 1
        self._put(ack, receiver)

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
        unacknowledged ones *and* the frames already received, acked and
        parked in a receiver's reorder buffer behind a FIFO gap (those
        were never handed to a protocol process either, and clearing them
        silently would lose a completed fire-and-forget write that was
        acked but not yet delivered).  The caller inspects them for
        completed writes whose payload must be absorbed into the recovery
        write log (they were already reported complete to the
        application, so they cannot be re-driven).  Frames are returned
        per channel in sequence order, channels sorted — so absorption
        order respects per-channel FIFO and is deterministic.
        """
        self.epoch += 1
        by_channel: Dict[Tuple[int, int], Dict[int, Frame]] = {}
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
            frame = pending.frame
            by_channel.setdefault((frame.src, frame.dst), {})[
                frame.seq] = frame
        for (src, dst), buffer in self._reorder.items():
            for seq, msg in buffer.items():
                by_channel.setdefault((src, dst), {})[seq] = Frame(
                    "data", src, dst, seq, msg=msg, op_id=msg.op_id,
                    epoch=self.epoch - 1,
                )
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
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._send_seq.clear()
        self._expected.clear()
        self._reorder.clear()
        self._dgram_pending.clear()
        self._dgram_seq.clear()
        self._dgram_seen.clear()
        return voided
