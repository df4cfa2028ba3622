"""Distributed Write-Through protocol (paper Sections 2-4, Tables 1-3).

Client copy states: ``INVALID`` (start), ``VALID``.  Sequencer copy state:
``VALID`` only.  Traces and costs (Section 4.1):

====== ===================================================== ==========
trace  trigger                                               cost
====== ===================================================== ==========
tr1    client read, copy VALID                               0
tr2    client read, copy INVALID: ``R-PER`` then
       ``R-GNT + ui``                                        ``S + 2``
tr3    client write, copy VALID: ``W-PER + w`` then
       ``W-INV`` to the other ``N - 1`` clients              ``P + N``
tr4    client write, copy INVALID (same messages)            ``P + N``
tr5    sequencer read                                        0
tr6    sequencer write: ``W-INV`` to all ``N`` clients       ``N``
====== ===================================================== ==========

The defining quirk of the distributed Write-Through client (mandated by the
paper's steady-state derivation, where trace ``tr2`` has the probability that
a read follows a write): the client does **not** keep a valid copy after its
own write — the write parameters are forwarded to the sequencer and the local
copy becomes ``INVALID``.  Writes are fire-and-forget (no response from the
sequencer), so the local queue is only disabled during read misses.
"""

from __future__ import annotations

from typing import Optional

from ..machines.message import (
    Message, R_PER, W_PER, R_GNT, W_INV, PP_NONE, PP_WRITE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["WriteThroughClient", "WriteThroughSequencer", "SPEC"]

INVALID = "INVALID"
VALID = "VALID"


class WriteThroughClient(ProtocolProcess):
    """Client-side Write-Through protocol process (Table 1)."""

    #: warm rejoin is sound: every serialized write invalidates all other
    #: clients unconditionally (no directory to re-register with), so a
    #: snapshot installed VALID can never go stale silently.
    WARM_REJOIN_STATE = VALID

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending_read: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # Section 6 extension: drop the replica.  Write-Through keeps
            # no validity directory, so the eject is silent and free.
            self.state = INVALID
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.state == VALID:
                # trace tr1: local read hit.
                self.ctx.complete(op, self.value)
            else:
                # trace tr2: ask the sequencer; block the local queue.
                self._pending_read = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.ctx.sequencer_id, R_PER, PP_NONE, op.op_id)
        else:
            # traces tr3/tr4: forward the write parameters, drop the copy.
            self.state = INVALID
            self.ctx.send(self.ctx.sequencer_id, W_PER, PP_WRITE, op.op_id,
                          payload={"value": op.params})
            self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        if msg.token.type is R_GNT:
            # trace tr2 completion: install the granted user information.
            self.value = msg.payload["value"]
            self.state = VALID
            op, self._pending_read = self._pending_read, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        elif msg.token.type is W_INV:
            self.state = INVALID
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_through client: unexpected {msg.token.type}")


class WriteThroughSequencer(ProtocolProcess):
    """Sequencer-side Write-Through protocol process (Table 3)."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        #: count of serialized writes (test instrumentation)
        self.serialized_writes = 0

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # the sequencer's copy is the memory of record: pinned.
            self.ctx.complete(op)
            return
        if op.kind == READ:
            # trace tr5: the sequencer's copy is always VALID.
            self.ctx.complete(op, self.value)
        else:
            # trace tr6: apply locally and invalidate all N clients.
            self.value = op.params
            self.serialized_writes += 1
            self.ctx.broadcast_except([], W_INV, PP_NONE, op.op_id)
            self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        if msg.token.type is R_PER:
            # routine 103: grant with user information.
            self.ctx.send(msg.src, R_GNT, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value},
                          initiator=msg.token.operation_initiator)
        elif msg.token.type is W_PER:
            # routine 104: apply and invalidate everyone but the writer.
            self.value = msg.payload["value"]
            self.serialized_writes += 1
            self.ctx.broadcast_except([msg.src], W_INV, PP_NONE, msg.op_id,
                                      initiator=msg.token.operation_initiator)
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_through sequencer: unexpected {msg.token.type}")


SPEC = ProtocolSpec(
    name="write_through",
    display_name="Write-Through",
    client_states=(INVALID, VALID),
    sequencer_states=(VALID,),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=WriteThroughClient,
    sequencer_factory=WriteThroughSequencer,
    hit_states=frozenset({VALID}),
    notes=(
        "Paper-exact (Tables 1-3). Client writes are fire-and-forget and "
        "self-invalidate; read misses block the local queue until R-GNT."
    ),
)
