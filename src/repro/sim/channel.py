"""FIFO message fabric (paper Section 2).

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

A delivery is never cancelled, so :meth:`Network.send` posts it to the
scheduler without a timer handle: one bound method
(:meth:`Network._deliver`, bound once per fabric) plus a ``(msg, slot,
seq)`` tuple, no closure per send.  Each delivery is due ``latency``
after a send at the current time, and simulated time never runs
backwards, so deliveries are posted in non-decreasing time order and
ride the scheduler's FIFO lane (:mod:`repro.sim.engine`).  Ties break by
the global sequence number, so FIFO holds per channel and the sequence
check guards it.

A broadcast is posted as one fan-out: the sending port passes a
``fanout`` list through :meth:`Network.send`, which charges each message
and appends its ``(msg, slot, seq)`` tuple instead of posting it, and
:meth:`Network.post_fanout` then posts the list with one
:meth:`~repro.sim.engine.EventScheduler.post_many` call.  The deliveries
take the consecutive sequence numbers, and the one time, that one post
each would have given them, and the scheduler fires them back to back in
one step; each still passes the FIFO check in :meth:`Network._deliver`
and reaches the attached node handler on its own.

Faults live one layer up: a run with a fault or partition plan rides the
reliable transport (:mod:`repro.sim.reliable`), which owns the faulty
wire and posts every frame itself, so this fabric never drops,
duplicates or delays a message.

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
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: float = 1.0,
        on_cost: Optional[Callable[[Message, float], None]] = None,
    ):
        if latency <= 0:
            raise ValueError("latency must be positive for causal delivery")
        self.scheduler = scheduler
        self.latency = latency
        self.on_cost = on_cost
        #: optional :class:`repro.obs.Tracer`; the deliver hook emits
        #: per-operation "deliver" events
        self.tracer = None
        self._deliver_to: Dict[int, Callable[[Message], None]] = {}
        # FIFO bookkeeping: ``_slots[src][dst]`` is the directed channel's
        # ``[sent, delivered]`` slot, made on the channel's first send.
        # True per-channel counters (not a shared global) make the
        # invariant check meaningful per channel.
        self._slots: Dict[int, Dict[int, List[int]]] = {}
        # bound once: every send posts through them
        self._post = scheduler.post
        self._post_many = scheduler.post_many
        self._deliver_cb = self._deliver
        #: total messages sent (all cost classes)
        self.messages_sent = 0

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._deliver_to[node_id] = handler

    def send(self, msg: Message, cost: float,
             fanout: Optional[List[Tuple[Message, List[int], int]]] = None
             ) -> float:
        """Send ``msg``; charge ``cost``; schedule delivery.

        ``cost`` is the sender's price for the message (0 for self-sends,
        which the paper counts as intra-node actions).  Returns ``cost``.

        ``fanout`` collects a broadcast: the delivery is appended to it
        instead of posted, and :meth:`post_fanout` posts the whole list
        at once.

        Raises:
            RuntimeError: if ``msg.dst`` was never attached to the fabric.
        """
        try:
            slot = self._slots[msg.src][msg.dst]
        except KeyError:
            slot = self._open_channel(msg)
        if self.on_cost is not None and cost > 0.0:
            self.on_cost(msg, cost)
        self.messages_sent += 1
        seq = slot[0] + 1
        slot[0] = seq
        if fanout is None:
            self._post(self.latency, self._deliver_cb, (msg, slot, seq))
        else:
            fanout.append((msg, slot, seq))
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

    def _deliver(self, item: Tuple[Message, List[int], int]) -> None:
        """Deliver one message posted by :meth:`send`."""
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
