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

The fault path looks a transmission's link state up once (the link
plan's ``(drop, duplicate, jitter)`` maxima at the send time; both plans
index their windows, by directed link and by node) and draws in a fixed
order: global drop, then link drop (skipped after a global drop); for a
delivered transmission global jitter, then link jitter; then global
duplicate, then link duplicate (skipped after a global duplicate); and
jitter again for the duplicate.  A straggler endpoint multiplies each
delay without a draw.  Faulty deliveries are never cancelled either, so
they are posted handle-free like the fault-free ones — the bound
:meth:`Network._deliver_faulty` plus the same ``(msg, slot, seq)``
tuple, one sequence number per delivery; the slot's ``delivered`` field
keeps the channel's delivery high-water mark.  A jittered delivery due
before the lane's tail falls back to the scheduler's heap by itself, so
the firing order is the one a single heap would give.

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
    from .faults import FaultPlan
    from .partition import PartitionPlan

__all__ = ["Network"]


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
        if (faulty and self.screen_sources and self.faults is not None
                and self.faults.is_down(src, self.scheduler.now)):
            # the source's interface is dead: nothing leaves the node and
            # nothing is charged (the message was never emitted).
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
        plan = self.faults
        parts = self.partitions
        now = self.scheduler.now
        # the link's (drop, duplicate, jitter) rates, looked up once;
        # None when no link fault is active (every rate is then 0)
        link = (parts._link_rates(src, dst, now) if parts is not None
                else None)
        item = (msg, slot, seq)
        # the global plan rolls first; a loss there short-circuits the
        # link roll (both streams are private, so this stays deterministic)
        if ((plan is not None and plan.should_drop(src, dst))
                or (link is not None and parts._roll_drop(link[0]))):
            self.dropped += 1
            self._fault_event("drop")
        else:
            self._post(self._faulty_delay(src, dst, now, link),
                       self._deliver_faulty, item)
        if ((plan is not None and plan.should_duplicate(src, dst))
                or (link is not None and parts._roll_duplicate(link[1]))):
            self.duplicated += 1
            self._fault_event("duplicate")
            self._post(self._faulty_delay(src, dst, now, link),
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

    def _faulty_delay(self, src: int, dst: int, now: float,
                      link: Optional[Tuple[float, float, float]]) -> float:
        """One faulty delivery's delay: latency plus global then link
        jitter, stretched by a straggler endpoint."""
        plan = self.faults
        delay = self.latency
        if plan is not None:
            delay += plan.jitter_for(src, dst)
        if link is not None:
            delay += self.partitions._roll_jitter(link[2])
        if plan is not None and plan.slowdowns:
            # gray failure: a straggler endpoint stretches the whole
            # delivery multiplicatively.  Deterministic (no RNG), and
            # exactly 1.0 without slow windows, so plans predating
            # the straggler model keep byte-identical delays.
            delay *= plan.link_slowdown(src, dst, now)
        return delay

    def _deliver_faulty(self, item: Tuple[Message, List[int], int]) -> None:
        """Faulty-fabric delivery of one transmission posted by :meth:`send`."""
        msg, slot, seq = item
        plan = self.faults
        if plan is not None and plan.is_down(msg.dst, self.scheduler.now):
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
