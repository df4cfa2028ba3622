"""FIFO message fabric (paper Section 2), optionally made faulty.

The paper assumes "fault free communication between nodes and the
implementation of the message passing mechanism through channels that
behave like first-in/first-out queues.  Thus, every message sent is
delivered and not corrupted."

:class:`Network` models one logical FIFO channel per ordered node pair with
a constant per-message latency.  Constant latency plus the scheduler's
schedule-order tie-breaking yields exact FIFO delivery per channel; a
per-channel sequence check enforces (and tests assert) the invariant.
Each directed channel owns one mutable ``[sent, delivered]`` slot, found
through two int-keyed dicts (source, then destination); a send numbers
its message from the slot's ``sent`` count and a delivery checks its
number against ``delivered``, so neither builds or hashes a channel
tuple.

On the fault-free fabric a delivery is never cancelled, so
:meth:`Network.send` posts it to the scheduler without a timer handle:
one bound method (:meth:`Network._deliver`, bound once per fabric) plus
a ``(msg, slot, seq)`` tuple, no closure per send.  Each delivery is due
``latency`` after a send at the current time, and simulated time never
runs backwards, so deliveries are posted in non-decreasing time order
and ride the scheduler's FIFO lane (:mod:`repro.sim.engine`).  Ties
break by the global sequence number, so FIFO holds per channel and the
sequence check guards it.

A broadcast on the fault-free fabric is posted as one fan-out: the
sending port passes a ``fanout`` list through :meth:`Network.send`, which
charges each message and appends its ``(msg, slot, seq)`` tuple instead
of posting it, and :meth:`Network.post_fanout` then posts the list with
one :meth:`~repro.sim.engine.EventScheduler.post_many` call.  The
deliveries take the consecutive sequence numbers, and the one time,
that one post each would have given them, and the scheduler fires them
back to back in one step; each still passes the FIFO check in
:meth:`Network._deliver` and reaches the attached node handler on its
own.  A faulty fabric (and the reliable transport above one) posts every
message separately, so a port hands ``fanout`` only to a
:attr:`~Network.fault_free` fabric.

With a :class:`~repro.sim.faults.FaultPlan` attached the fabric becomes the
*physical* layer of the fault model (docs/faults.md): transmissions may be
dropped, duplicated, or delayed by jitter, and nothing is sent by or
delivered to a crashed node.  Jitter can reorder deliveries, so the strict
FIFO invariant is waived in fault mode — the reliable-delivery layer
(:mod:`repro.sim.reliable`) restores exactly-once FIFO order above it.

A faulty fabric compiles its plans' windows into one
:class:`~repro.sim.faults.FaultTimeline` at construction (the plain
fabric builds none) and reads one segment of it per transmission: that
one read gives the down set that screens the source, the link's
``(drop, duplicate, jitter)`` rates and the straggler factor of the two
endpoints.  The global plan's rates and RNG and the link plan's RNG are
bound on the fabric, which rolls every decision itself in a fixed
order: global drop, then link drop (skipped after a global drop); for a
delivered transmission global jitter, then link jitter; then global
duplicate, then link duplicate (skipped after a global duplicate); and
jitter again for the duplicate.  Each delay is ``latency`` plus the two
jitters, times the straggler factor (exactly 1.0 with no slow endpoint),
so a straggler consumes no draw.  Faulty deliveries are never cancelled
either, so they are posted handle-free like the fault-free ones — the
bound :meth:`Network._deliver_faulty` plus the same ``(msg, slot, seq)``
tuple, one sequence number per delivery; the slot's ``delivered`` field
keeps the channel's delivery high-water mark, and the delivery tests the
receiver against the timeline's down set at its own time.  A jittered
delivery due before the lane's tail falls back to the scheduler's heap
by itself, so the firing order is the one a single heap would give.

Message costs (Section 4.1) are priced by the sender and charged at send
time through the attached :class:`~repro.sim.metrics.Metrics` sink: 1 for
a bare token, ``S + 1`` with user information, ``P + 1`` with write
parameters, and 0 for a self-send.  The fabric never prices a message
itself: the sending port prices each token once, with
:func:`~repro.machines.message.token_cost`, and passes the cost along
with the message (:class:`~repro.sim.node.ObjectPort`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..machines.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EventScheduler
    from .faults import FaultPlan, FaultTimeline
    from .partition import PartitionPlan

__all__ = ["Network"]

#: the link-rate row of a source with no faulty outgoing link
_NO_LINKS: Dict[int, Tuple[float, float, float]] = {}


class Network:
    """Full-mesh FIFO fabric over an event scheduler.

    The star usage restriction (clients talk only to the sequencer/owner) is
    a property of the protocols, not of the fabric; modelling a full mesh
    lets the migrating-owner protocols (Berkeley, Dragon) address any node.

    Args:
        scheduler: the discrete-event engine.
        latency: constant per-hop delay (must be positive).
        on_cost: cost sink, called as ``on_cost(msg, cost)`` for every
            charged (inter-node) send.
        faults: optional fault plan; ``None`` or :meth:`FaultPlan.none`
            keeps the paper-faithful fault-free fabric.
        partitions: optional link-fault plan
            (:class:`~repro.sim.partition.PartitionPlan`); per-link
            drop/duplicate/jitter decisions are layered over the global
            plan's (a transmission is lost if *either* says so).
        on_fault: optional observer, called with ``"drop"``,
            ``"duplicate"``, ``"down_src"`` or ``"down_dst"`` for every
            injected fault event.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: float = 1.0,
        on_cost: Optional[Callable[[Message, float], None]] = None,
        faults: Optional[FaultPlan] = None,
        partitions: Optional[PartitionPlan] = None,
        on_fault: Optional[Callable[[str], None]] = None,
    ):
        if latency <= 0:
            raise ValueError("latency must be positive for causal delivery")
        self.scheduler = scheduler
        self.latency = latency
        self.on_cost = on_cost
        # a no-fault plan is normalized away: the fault-free path below is
        # then byte-for-byte the paper's fabric (pay-for-what-you-use).
        self.faults = faults if faults is not None and not faults.is_none else None
        self.partitions = (partitions
                           if partitions is not None and not partitions.is_none
                           else None)
        self.on_fault = on_fault
        #: the plans' windows as one :class:`~repro.sim.faults.FaultTimeline`
        #: (``None`` on the fault-free fabric); the reliable layer, the
        #: failure detector, recovery and reconfiguration read it too.
        self.timeline: Optional[FaultTimeline] = None
        # the decisions' rates and streams, bound once (0 rolls nothing)
        plan = self.faults
        self._drop_rate = plan.drop_rate if plan is not None else 0.0
        self._duplicate_rate = (plan.duplicate_rate if plan is not None
                                else 0.0)
        self._jitter = plan.jitter if plan is not None else 0.0
        self._rng = plan._rng if plan is not None else None
        self._link_rng = (self.partitions._rng
                          if self.partitions is not None else None)
        if not self.fault_free:
            from .faults import FaultTimeline
            self.timeline = FaultTimeline(plan, self.partitions)
        #: optional :class:`repro.obs.Tracer`.  On a plain fabric the
        #: deliver hook emits per-operation "deliver" events; under a
        #: :class:`~repro.sim.reliable.ReliableNetwork` the tracer is
        #: attached to the reliable layer instead (protocol-level
        #: deliveries), never to the physical fabric beneath it.
        self.tracer = None
        self._deliver_to: Dict[int, Callable[[Message], None]] = {}
        # FIFO bookkeeping: ``_slots[src][dst]`` is the directed channel's
        # ``[sent, delivered]`` slot, made on the channel's first send.
        # True per-channel counters (not a shared global) make the
        # invariant check — and the reliable layer's duplicate
        # suppression, which reuses the same numbering idea — meaningful
        # per channel.
        self._slots: Dict[int, Dict[int, List[int]]] = {}
        # bound once: every send posts through them
        self._post = scheduler.post
        self._post_many = scheduler.post_many
        self._deliver_cb = self._deliver
        #: total messages sent (all cost classes)
        self.messages_sent = 0
        #: transmissions lost to the fault plan (drops + dead receivers)
        self.dropped = 0
        #: extra deliveries injected by the fault plan
        self.duplicated = 0
        #: sends swallowed because the source node was down
        self.suppressed = 0
        #: whether :meth:`send` swallows a faulty transmission from a
        #: crashed source.  A :class:`~repro.sim.reliable.ReliableNetwork`
        #: screens its sources itself before sending (a retransmission
        #: from a dead node must not be charged) and turns this off, so
        #: each transmission asks the crash schedule once.
        self.screen_sources = True

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._deliver_to[node_id] = handler

    def _fault_event(self, kind: str) -> None:
        if self.on_fault is not None:
            self.on_fault(kind)
        if self.tracer is not None:
            self.tracer.system_event("fault." + kind)

    @property
    def fault_free(self) -> bool:
        """Whether this is the paper's fabric: no fault or link plan."""
        return self.faults is None and self.partitions is None

    def send(self, msg: Message, cost: float,
             fanout: Optional[List[Tuple[Message, List[int], int]]] = None
             ) -> float:
        """Send ``msg``; charge ``cost``; schedule delivery.

        ``cost`` is the sender's price for the message (0 for self-sends,
        which the paper counts as intra-node actions).  Returns the cost
        charged: ``cost``, or 0 for a send suppressed because the source
        node is crashed.

        ``fanout`` collects a broadcast on a :attr:`fault_free` fabric:
        the delivery is appended to it instead of posted, and
        :meth:`post_fanout` posts the whole list at once.  Pass it only
        on a fault-free fabric.

        Raises:
            RuntimeError: if ``msg.dst`` was never attached to the fabric.
        """
        src = msg.src
        dst = msg.dst
        try:
            slot = self._slots[src][dst]
        except KeyError:
            slot = self._open_channel(msg)
        faulty = ((self.faults is not None or self.partitions is not None)
                  and src != dst)
        if faulty:
            down, slow, links = self.timeline.at(self.scheduler.now)
            if self.screen_sources and src in down:
                # the source's interface is dead: nothing leaves the node
                # and nothing is charged (the message was never emitted).
                self.suppressed += 1
                self._fault_event("down_src")
                return 0.0
        if self.on_cost is not None and cost > 0.0:
            self.on_cost(msg, cost)
        self.messages_sent += 1
        seq = slot[0] + 1
        slot[0] = seq

        if not faulty:
            if fanout is None:
                self._post(self.latency, self._deliver_cb, (msg, slot, seq))
            else:
                fanout.append((msg, slot, seq))
            return cost

        # ---- fault path: drops, duplicates, jitter, dead receivers ----
        # the link's (drop, duplicate, jitter) rates; None when no link
        # fault is active on src -> dst (every rate is then 0)
        link = links.get(src, _NO_LINKS).get(dst) if links else None
        # a link is as slow as its slowest endpoint (no draw)
        factor = (max(slow.get(src, 1.0), slow.get(dst, 1.0)) if slow
                  else 1.0)
        rng = self._rng
        item = (msg, slot, seq)
        # the global plan rolls first; a loss there short-circuits the
        # link roll (both streams are private, so this stays deterministic).
        # A full link cut (rate >= 1) consumes no draw.
        rate = self._drop_rate
        if rate and rng.random() < rate:
            dropped = True
        elif link is None or link[0] <= 0.0:
            dropped = False
        else:
            rate = link[0]
            dropped = rate >= 1.0 or self._link_rng.random() < rate
        if dropped:
            self.dropped += 1
            self._fault_event("drop")
        else:
            self._post(self._faulty_delay(link, factor),
                       self._deliver_faulty, item)
        rate = self._duplicate_rate
        if rate and rng.random() < rate:
            duplicated = True
        else:
            duplicated = (link is not None and link[1] > 0.0
                          and self._link_rng.random() < link[1])
        if duplicated:
            self.duplicated += 1
            self._fault_event("duplicate")
            self._post(self._faulty_delay(link, factor),
                       self._deliver_faulty, item)
        return cost

    def post_fanout(self,
                    fanout: List[Tuple[Message, List[int], int]]) -> None:
        """Post the deliveries :meth:`send` collected in ``fanout``.

        One :meth:`~repro.sim.engine.EventScheduler.post_many` call: the
        deliveries keep the consecutive sequence numbers and the time
        their one-by-one posts would have had, so they fire in the same
        order, back to back.
        """
        self._post_many(self.latency, self._deliver_cb, fanout)

    def _open_channel(self, msg: Message) -> List[int]:
        """Make the ``[sent, delivered]`` slot of ``msg``'s channel.

        Called on the channel's first send; nodes are never detached, so
        checking the destination here covers every later send too.

        Raises:
            RuntimeError: if ``msg.dst`` was never attached to the fabric.
        """
        src = msg.src
        dst = msg.dst
        if dst not in self._deliver_to:
            raise RuntimeError(
                f"cannot send {type(msg).__name__} from node {src}: "
                f"destination node {dst} is not attached to the network"
            )
        slot = [0, 0]
        self._slots.setdefault(src, {})[dst] = slot
        return slot

    def _faulty_delay(self, link: Optional[Tuple[float, float, float]],
                      factor: float) -> float:
        """One faulty delivery's delay: latency plus global then link
        jitter, times the straggler factor (1.0 leaves it exact)."""
        delay = self.latency
        if self._jitter:
            delay += self._rng.uniform(0.0, self._jitter)
        if link is not None and link[2] > 0.0:
            delay += self._link_rng.uniform(0.0, link[2])
        return delay * factor

    def _deliver_faulty(self, item: Tuple[Message, List[int], int]) -> None:
        """Faulty-fabric delivery of one transmission posted by :meth:`send`."""
        msg, slot, seq = item
        if msg.dst in self.timeline.at(self.scheduler.now)[0]:
            # the receiver is crashed: the transmission is lost.
            self.dropped += 1
            self._fault_event("down_dst")
            return
        # jitter reorders deliveries, so no strict FIFO check here;
        # track the high-water mark for observability only.
        if seq > slot[1]:
            slot[1] = seq
        tracer = self.tracer
        if tracer is not None:
            token = getattr(msg, "token", None)
            tracer.op_event(
                "deliver", msg.op_id, src=msg.src, dst=msg.dst,
                detail=(token.type.value if token is not None
                        else getattr(msg, "kind", None)),
            )
        self._deliver_to[msg.dst](msg)

    def _deliver(self, item: Tuple[Message, List[int], int]) -> None:
        """Fault-free delivery of one message posted by :meth:`send`."""
        msg, slot, seq = item
        # FIFO invariant: per channel, delivery follows send order.
        if seq < slot[1]:  # pragma: no cover
            raise RuntimeError(
                f"FIFO violation on channel {(msg.src, msg.dst)}")
        slot[1] = seq
        tracer = self.tracer
        if tracer is not None:
            tracer.op_event("deliver", msg.op_id, src=msg.src,
                            dst=msg.dst, detail=msg.token.type.value)
        self._deliver_to[msg.dst](msg)
