"""FIFO message fabric (paper Section 2).

The paper assumes "fault free communication between nodes and the
implementation of the message passing mechanism through channels that
behave like first-in/first-out queues.  Thus, every message sent is
delivered and not corrupted."

:class:`Network` models one logical FIFO channel per ordered node pair with
a constant per-message latency.  FIFO needs no bookkeeping: every
delivery is due ``latency`` after a send at the current time, simulated
time never runs backwards, and the scheduler breaks time ties by the
global sequence number it hands out in send order
(:mod:`repro.sim.engine`), so each channel delivers in send order.
``tests/sim/test_channel.py`` checks that over random interleavings of
sends and broadcasts.

A delivery is never cancelled, so :meth:`Network.send` posts it to the
scheduler without a timer handle, straight to the destination's attached
handler with the :class:`Message` itself as the argument: no wrapper
call and no tuple per send.  The deliveries are posted in non-decreasing
time order and ride the scheduler's FIFO lane.

:meth:`Network.broadcast` sends one message to each of several nodes in
one call: it charges the members in order (a self-send stays free),
counts each in :attr:`Network.messages_sent`, and posts all their
deliveries with one
:meth:`~repro.sim.engine.EventScheduler.post_many` call.  The
deliveries take the consecutive sequence numbers, and the one time, that
one :meth:`~Network.send` each would have given them, and the scheduler
fires them back to back in one step, each straight to its receiver.

With a tracer attached, every delivery takes one traced route instead,
which emits the per-operation ``deliver`` event and then calls the
handler.

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

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..machines.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EventScheduler

__all__ = ["Network", "unattached"]


def unattached(msg: Message) -> RuntimeError:
    """The error for a send to a node no handler was attached for."""
    return RuntimeError(
        f"cannot send {type(msg).__name__} from node {msg.src}: "
        f"destination node {msg.dst} is not attached to the network"
    )


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
        #: optional :class:`repro.obs.Tracer`; while set, deliveries take
        #: the traced route, which emits per-operation "deliver" events
        self.tracer = None
        self._deliver_to: Dict[int, Callable[[Message], None]] = {}
        # bound once: every send posts through them
        self._post = scheduler.post
        self._post_many = scheduler.post_many
        #: total messages sent (all cost classes)
        self.messages_sent = 0

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._deliver_to[node_id] = handler

    def send(self, msg: Message, cost: float) -> float:
        """Send ``msg``; charge ``cost``; schedule delivery.

        ``cost`` is the sender's price for the message (0 for self-sends,
        which the paper counts as intra-node actions).  Returns ``cost``.

        Raises:
            RuntimeError: if ``msg.dst`` was never attached to the fabric.
        """
        try:
            handler = self._deliver_to[msg.dst]
        except KeyError:
            raise unattached(msg) from None
        if cost > 0.0 and self.on_cost is not None:
            self.on_cost(msg, cost)
        self.messages_sent += 1
        if self.tracer is not None:
            handler = self._traced
        self._post(self.latency, handler, msg)
        return cost

    def broadcast(self, msgs: List[Message], cost: float) -> None:
        """Send each of ``msgs``, all from one node, at ``cost`` each.

        The members are charged in order, a self-send (``dst == src``)
        for nothing, and their deliveries are posted with one
        :meth:`~repro.sim.engine.EventScheduler.post_many` call: they
        fire as one :meth:`send` each would have made them fire.

        Raises:
            RuntimeError: if a member's ``dst`` was never attached to the
                fabric; nothing is then charged or posted.
        """
        deliver_to = self._deliver_to
        try:
            calls = [(deliver_to[msg.dst], msg) for msg in msgs]
        except KeyError:
            raise unattached(next(msg for msg in msgs
                                  if msg.dst not in deliver_to)) from None
        if self.tracer is not None:
            traced = self._traced
            calls = [(traced, msg) for msg in msgs]
        on_cost = self.on_cost
        if cost > 0.0 and on_cost is not None:
            for msg in msgs:
                if msg.dst != msg.src:
                    on_cost(msg, cost)
        self.messages_sent += len(calls)
        self._post_many(self.latency, calls)

    def _traced(self, msg: Message) -> None:
        """Deliver ``msg`` after emitting its "deliver" trace event."""
        self.tracer.op_event("deliver", msg.op_id, src=msg.src,
                             dst=msg.dst, detail=msg.token.type.value)
        self._deliver_to[msg.dst](msg)
