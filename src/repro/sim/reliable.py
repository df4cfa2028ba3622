"""Reliable exactly-once FIFO delivery over a faulty fabric.

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

Cost accounting: the *first* transmission of a protocol message is charged
exactly as on the fault-free fabric, at the cost its sender priced (same
cost class, same trace-signature entry).  Each retransmission charges that
same cost again, and an ack costs 1 (a bare token).  Retransmissions and
acks are charged through
:meth:`Metrics.record_reliability_cost` — they inflate ``acc`` but are
tracked separately, so the reliability overhead can be broken out
(``Metrics.average_cost_breakdown``) and trace signatures stay comparable
to the paper's trace sets.  Intra-node sends bypass the transport entirely
(the paper counts them as free intra-node actions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..machines.message import Message
from ..util import backoff_delay, field_kwargs
from .channel import Network
from .engine import EventScheduler, TimerHandle
from .faults import FaultPlan, FaultTimeline
from .metrics import Metrics
from .partition import PartitionPlan

__all__ = ["ReliabilityConfig", "DeliveryViolation", "Frame",
           "ReliableNetwork"]


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
    """Transport envelope carried by the physical fabric.

    ``kind`` is ``"data"`` (wraps a protocol :class:`Message`), ``"ack"``
    (bare acknowledgement token), ``"dgram"`` / ``"dack"`` (the unordered
    datagram mode used by quorum protocols) or ``"loop"`` (intra-node
    bypass).  The ``src``/``dst``/``op_id`` surface lets a frame travel
    through :class:`~repro.sim.channel.Network` like any message, at the
    cost the transport hands it.  ``epoch`` is the sender's view-change
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
    """Exactly-once FIFO delivery over a (possibly faulty) :class:`Network`.

    Drop-in replacement for :class:`Network` from the protocol layer's
    point of view.  ``messages_sent`` counts *physical* frames (first
    attempts, retransmissions and acks), which is what a real wire would
    carry.
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
        self.scheduler = scheduler
        self.latency = latency
        self.metrics = metrics
        self.config = config if config is not None else ReliabilityConfig()
        self.physical = Network(
            scheduler,
            latency=latency,
            on_cost=None,  # this layer does its own cost attribution
            faults=faults,
            partitions=partitions,
            on_fault=self._on_physical_fault,
        )
        # :meth:`_transmit` screens every frame's source; acks leave a
        # node that is receiving, so it is up too.
        self.physical.screen_sources = False
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

    @property
    def messages_sent(self) -> int:
        """Total physical frames sent (data + retransmissions + acks)."""
        return self.physical.messages_sent

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The active fault plan (``None`` on a fault-free fabric)."""
        return self.physical.faults

    @property
    def partitions(self) -> Optional[PartitionPlan]:
        """The active link-fault plan (``None`` without partitions)."""
        return self.physical.partitions

    @property
    def timeline(self) -> Optional[FaultTimeline]:
        """The physical fabric's fault timeline (``None`` when fault-free)."""
        return self.physical.timeline

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._handlers[node_id] = handler
        self.physical.attach(node_id, self._on_frame)

    def send(self, msg: Message, cost: float) -> float:
        """Send ``msg`` reliably at the sender-priced ``cost``; returns
        the first-attempt cost charged."""
        if msg.src == msg.dst:
            # intra-node: free and trivially reliable; bypass the transport.
            frame = Frame("loop", msg.src, msg.dst, 0, msg, msg.op_id)
            return self.physical.send(frame, 0.0)
        if self.quarantined and msg.dst in self.quarantined:
            # the destination is quarantined out of the cluster view:
            # absorbing the send (no cost, no retries) is the whole point
            # of quarantine — the rejoin resync replays what it missed.
            if self.metrics is not None:
                self.metrics.partition.sends_absorbed += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    tracer.op_event("absorbed", msg.op_id, src=msg.src,
                                    dst=msg.dst, detail="quarantined dst")
            return 0.0
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
        self._transmit(pending, charge=False)
        self._arm_timer(pending)
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
        """
        if msg.src == msg.dst:
            frame = Frame("loop", msg.src, msg.dst, 0, msg, msg.op_id)
            return self.physical.send(frame, 0.0)
        if self.quarantined and msg.dst in self.quarantined:
            if self.metrics is not None:
                self.metrics.partition.sends_absorbed += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    tracer.op_event("absorbed", msg.op_id, src=msg.src,
                                    dst=msg.dst, detail="quarantined dst")
            return 0.0
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
        self._transmit(pending, charge=False)
        self._arm_timer(pending)
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

    def _transmit(self, pending: _PendingSend, charge: bool) -> None:
        frame = pending.frame
        timeline = self.physical.timeline
        if (timeline is not None
                and frame.src in timeline.at(self.scheduler.now)[0]):
            # the interface is dead: nothing leaves and nothing is charged;
            # the retry timer keeps running and tries again after recovery.
            self.physical.suppressed += 1
            self._on_physical_fault("down_src")
            return
        if charge and self.metrics is not None:
            self.metrics.record_reliability_cost(
                frame.op_id, pending.cost, kind="retransmit",
            )
        self.physical.send(frame, pending.cost)

    def _arm_timer(self, pending: _PendingSend) -> None:
        """Arm ``pending``'s retry timer for its current attempt (data
        frames and datagrams alike: the pending send knows its handler)."""
        pending.timer = self.scheduler.schedule(
            backoff_delay(self.config.timeout, self.config.backoff,
                          pending.attempts),
            pending)

    def _on_timeout(self, key: Tuple[Tuple[int, int], int]) -> None:
        pending = self._pending.get(key)
        if pending is None:  # pragma: no cover - acked timers are cancelled
            return
        if pending.attempts >= self.config.max_retries:
            # retry budget exhausted: abandon the send and surface it.
            del self._pending[key]
            frame = pending.frame
            timeline = self.physical.timeline
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
        pending.attempts += 1
        if self.metrics is not None:
            self.metrics.reliability.retransmissions += 1
        self._transmit(pending, charge=True)
        self._arm_timer(pending)

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
        pending.attempts += 1
        if self.metrics is not None:
            self.metrics.reliability.retransmissions += 1
        self._transmit(pending, charge=True)
        self._arm_timer(pending)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind == "loop":
            self._handlers[frame.dst](frame.msg)
            return
        if frame.epoch < self.epoch:
            # voided traffic from a previous view: never deliver or ack it.
            if self.metrics is not None:
                self.metrics.recovery.stale_frames_dropped += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    tracer.op_event("stale_frame_dropped", frame.op_id,
                                    src=frame.src, dst=frame.dst,
                                    detail="epoch %d < %d"
                                    % (frame.epoch, self.epoch))
            return
        if frame.kind == "ack":
            # the acked data channel is the reverse of the ack's path.
            key = ((frame.dst, frame.src), frame.seq)
            pending = self._pending.pop(key, None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
            return
        if frame.kind == "dack":
            key = ((frame.dst, frame.src), frame.seq)
            pending = self._dgram_pending.pop(key, None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
            return
        if frame.kind == "dgram":
            channel = (frame.src, frame.dst)
            # always dack, even duplicates: the previous dack may be lost.
            self._send_ack(frame, kind="dack")
            seen = self._dgram_seen.setdefault(channel, set())
            if frame.seq in seen:
                if self.metrics is not None:
                    self.metrics.reliability.duplicates_suppressed += 1
                    tracer = self.metrics.tracer
                    if tracer is not None:
                        tracer.op_event("dup_suppressed", frame.op_id,
                                        src=frame.src, dst=frame.dst)
                return
            seen.add(frame.seq)
            # unordered: deliver immediately, no FIFO gating.
            self._deliver(frame.dst, frame.msg)
            return
        channel = (frame.src, frame.dst)
        # always ack, even duplicates: the previous ack may have been lost.
        self._send_ack(frame)
        expected = self._expected.get(channel, 1)
        buffer = self._reorder.get(channel)
        if frame.seq < expected or (buffer and frame.seq in buffer):
            if self.metrics is not None:
                self.metrics.reliability.duplicates_suppressed += 1
                tracer = self.metrics.tracer
                if tracer is not None:
                    tracer.op_event("dup_suppressed", frame.op_id,
                                    src=frame.src, dst=frame.dst)
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

    def _deliver(self, dst: int, msg: Message) -> None:
        metrics = self.metrics
        tracer = metrics.tracer if metrics is not None else None
        if tracer is not None:
            tracer.op_event("deliver", msg.op_id, src=msg.src, dst=dst,
                            detail=msg.token.type.value)
        self._handlers[dst](msg)

    def _send_ack(self, data: Frame, kind: str = "ack") -> None:
        ack = Frame(kind, data.dst, data.src, data.seq, None, data.op_id,
                    self.epoch)
        if self.metrics is not None:
            self.metrics.reliability.acks += 1
            self.metrics.record_reliability_cost(ack.op_id, 1.0, kind="ack")
        # an ack is a bare token: cost 1
        self.physical.send(ack, 1.0)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _on_physical_fault(self, kind: str) -> None:
        if self.metrics is None:
            return
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event("fault." + kind)
        stats = self.metrics.reliability
        if kind == "drop" or kind == "down_dst":
            stats.drops += 1
        elif kind == "duplicate":
            stats.duplicates_injected += 1
        elif kind == "down_src":
            stats.sends_suppressed += 1

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
