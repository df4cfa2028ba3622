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

:meth:`Network.fan_out` sends one token from one node to each of
several nodes in one call: it builds every member's :class:`Message`
and its delivery in one pass, charges the whole fan-out with one
:meth:`~repro.sim.metrics.Metrics.record_fan_out` call (a self-send
stays free), counts each member in :attr:`Network.messages_sent`, and
posts all the deliveries with one
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
time to the run's :class:`~repro.sim.metrics.Metrics` ledger: 1 for
a bare token, ``S + 1`` with user information, ``P + 1`` with write
parameters, and 0 for a self-send.  The fabric never prices a message
itself: the sending port prices each token once, with
:func:`~repro.machines.message.token_cost`, and passes the cost along
with the message (:class:`~repro.sim.node.ObjectPort`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from ..machines.message import Message, MessageToken

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EventScheduler
    from .metrics import Metrics

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
        metrics: the ledger every charged (inter-node) send is charged
            to, through :meth:`~repro.sim.metrics.Metrics.record_message`
            or, for a fan-out,
            :meth:`~repro.sim.metrics.Metrics.record_fan_out`; ``None``
            charges nothing.  Both are looked up on the ledger at each
            charge, so a wrapper set on the instance sees every charge.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: float = 1.0,
        metrics: Optional[Metrics] = None,
    ):
        if latency <= 0:
            raise ValueError("latency must be positive for causal delivery")
        self.scheduler = scheduler
        self.latency = latency
        self.metrics = metrics
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
        if cost > 0.0 and self.metrics is not None:
            self.metrics.record_message(msg, cost)
        self.messages_sent += 1
        if self.tracer is not None:
            handler = self._traced
        self._post(self.latency, handler, msg)
        return cost

    def fan_out(self, token: MessageToken, src: int, dsts: Sequence[int],
                payload: Any, op_id: Optional[int], cost: float) -> None:
        """Send ``token`` from ``src`` to each of ``dsts``, in order, at
        ``cost`` each.

        Every member is one :class:`Message` sharing ``payload`` and
        ``op_id``.  The whole fan-out is charged with one
        :meth:`~repro.sim.metrics.Metrics.record_fan_out` call, which
        leaves a self-send (``dst == src``) free, and the deliveries are
        posted with one
        :meth:`~repro.sim.engine.EventScheduler.post_many` call: they
        fire as one :meth:`send` each would have made them fire.

        Raises:
            RuntimeError: if a member of ``dsts`` was never attached to
                the fabric; nothing is then charged or posted.
        """
        deliver_to = self._deliver_to
        try:
            calls = [(deliver_to[dst], Message(token, src, dst, payload, op_id))
                     for dst in dsts]
        except KeyError:
            dst = next(dst for dst in dsts if dst not in deliver_to)
            raise unattached(Message(token, src, dst, payload, op_id)) from None
        if cost > 0.0 and self.metrics is not None:
            self.metrics.record_fan_out(token, src, dsts, op_id, cost)
        if self.tracer is not None:
            traced = self._traced
            calls = [(traced, msg) for _, msg in calls]
        self.messages_sent += len(calls)
        self._post_many(self.latency, calls)

    def _traced(self, msg: Message) -> None:
        """Deliver ``msg`` after emitting its "deliver" trace event."""
        self.tracer.op_event("deliver", msg.op_id, src=msg.src,
                             dst=msg.dst, detail=msg.token.type.value)
        self._deliver_to[msg.dst](msg)
