"""Distributed Write-Once protocol (paper appendix, Figure 10).

Client copy states: ``INVALID`` (start), ``VALID``, ``RESERVED``, ``DIRTY``;
sequencer copy states: ``VALID`` (start), ``INVALID``.  The appendix fixes
the key property: "The write operation of kth client changes the state of
the sequencer's copy from VALID to INVALID only if kth client's copy is in
RESERVED or INVALID state" — i.e. the *first* write (from ``VALID``) is
written through and the sequencer stays current; later writes go local.

Reconstructed choreography (DESIGN.md).  Two bus mechanisms have no free
equivalent in a star topology and are replaced by explicit tokens:

* the bus's *snooped read* that downgrades a ``RESERVED`` copy to ``VALID``
  becomes a ``DGR`` token (cost 1) the sequencer sends to the reserved
  client whenever it serves a read while one exists;
* the bus's silent ``RESERVED -> DIRTY`` upgrade becomes a blocking
  two-token handshake ``D-NOT``/``D-GNT`` (cost 2) so the upgrade is
  serialized; if the reserved status was lost in flight the sequencer
  answers ``D-NACK`` and the writer re-executes the write from its actual
  state (no write is ever lost).

Cost table:

* write on ``VALID`` — write-through, ``P + N``, copy -> ``RESERVED``;
* write on ``RESERVED`` — ``D-NOT`` + ``D-GNT``, cost 2, copy -> ``DIRTY``,
  sequencer -> ``INVALID``;
* write on ``DIRTY`` — free;
* write on ``INVALID`` — read-with-intent-to-modify, ``S + N + 1`` from a
  VALID sequencer, ``2S + N + 3`` via recall;
* read on ``INVALID`` — ``S + 2`` from a VALID sequencer (+1 ``DGR`` when a
  reserved copy exists), ``2S + 4`` via recall (the dirty owner supplies
  the copy, writes back and stays ``VALID``).
"""

from __future__ import annotations

from typing import Optional

from ..machines.message import (
    Message, R_PER, W_PER, R_GNT, W_INV, O_PER, O_GNT, RCL, WB, D_NOT, D_GNT,
    D_NACK, DGR, EJ, PP_NONE, PP_WRITE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    HoldingMixin,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["WriteOnceClient", "WriteOnceSequencer", "SPEC"]

INVALID = "INVALID"
VALID = "VALID"
RESERVED = "RESERVED"
DIRTY = "DIRTY"


class WriteOnceClient(ProtocolProcess):
    """Client-side Write-Once process."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # DIRTY: flush home (WB + ui).  RESERVED: the content is
            # already home (written through), but the sequencer's
            # reserved-client entry must clear (one token).  VALID: silent.
            if self.state == DIRTY:
                self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO,
                              op.op_id, payload={"value": self.value})
            elif self.state == RESERVED:
                self.ctx.send(self.ctx.sequencer_id, EJ,
                              PP_NONE, op.op_id)
            self.state = INVALID
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.state in (VALID, RESERVED, DIRTY):
                self.ctx.complete(op, self.value)
            else:
                self._pending = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.ctx.sequencer_id, R_PER, PP_NONE, op.op_id)
            return
        # write
        if self.state == DIRTY:
            self.value = op.params
            self.ctx.complete(op)
        elif self.state == RESERVED:
            # serialized local upgrade: ask before going DIRTY.
            self._pending = op
            self.ctx.disable_local_queue()
            self.ctx.send(self.ctx.sequencer_id, D_NOT, PP_NONE, op.op_id)
        elif self.state == VALID:
            # first write: write through, keep the copy in RESERVED.
            self.value = op.params
            self.state = RESERVED
            self.ctx.send(self.ctx.sequencer_id, W_PER, PP_WRITE, op.op_id,
                          payload={"value": op.params})
            self.ctx.complete(op)
        else:
            # INVALID: read-with-intent-to-modify.
            self._pending = op
            self.ctx.disable_local_queue()
            self.ctx.send(self.ctx.sequencer_id, O_PER, PP_NONE, op.op_id)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is R_GNT:
            self.value = msg.payload["value"]
            self.state = VALID
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        elif mtype is O_GNT:
            op, self._pending = self._pending, None
            self.value = msg.payload["value"]
            self.value = op.params
            self.state = DIRTY
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif mtype is D_GNT:
            # upgrade granted: apply the write locally.
            op, self._pending = self._pending, None
            self.value = op.params
            self.state = DIRTY
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif mtype is D_NACK:
            # reserved status lost in flight (an invalidation or downgrade
            # is ahead of this NACK on the FIFO channel, so our state is
            # already VALID or INVALID): redo the write from the real state.
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.on_request(op)
        elif mtype is DGR:
            # another node read the object: a write is no longer "once".
            if self.state == RESERVED:
                self.state = VALID
        elif mtype is RCL:
            if self.state != DIRTY:
                return  # stale recall; a voluntary write-back beat it
            # supply the copy; stay VALID (memory is updated by the WB).
            self.state = VALID
            self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value})
        elif mtype is W_INV:
            self.state = INVALID
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_once client: unexpected {mtype}")


class WriteOnceSequencer(HoldingMixin, ProtocolProcess):
    """Sequencer-side Write-Once process with owner/reserved directory."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        self._init_holding()
        self.owner: Optional[int] = None
        #: the client whose last write-through made it RESERVED, if still so
        self.reserved_client: Optional[int] = None
        self._recall_for: Optional[object] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            self.ctx.complete(op)  # the home copy is pinned
            return
        if self._busy:
            self._hold(op)
            return
        if op.kind == READ:
            if self.state == VALID:
                self._downgrade_reserved(op.op_id)
                self.ctx.complete(op, self.value)
            else:
                self._start_recall(op, op.op_id)
        else:
            if self.state == VALID:
                self._apply_own_write(op)
            else:
                self._start_recall(op, op.op_id)

    def _apply_own_write(self, op: Operation) -> None:
        self.value = op.params
        self.reserved_client = None
        self.ctx.broadcast_except([], W_INV, PP_NONE, op.op_id)
        self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if self._busy and mtype is not WB:
            self._hold(msg)
            return
        if mtype is R_PER:
            if self.state == VALID:
                self._grant_read(msg.src, msg.op_id, msg.token.operation_initiator)
            else:
                self._start_recall(msg, msg.op_id)
        elif mtype is O_PER:
            if self.state == VALID:
                self._grant_ownership(msg.src, msg.op_id, msg.token.operation_initiator)
            else:
                self._start_recall(msg, msg.op_id)
        elif mtype is W_PER:
            if self.state == VALID:
                # write-through from a VALID client: apply, invalidate others.
                self.value = msg.payload["value"]
                self.reserved_client = msg.src
                self.ctx.broadcast_except(
                    [msg.src], W_INV, PP_NONE, msg.op_id,
                    initiator=msg.token.operation_initiator,
                )
            else:
                # the writer was invalidated in flight; recall the dirty
                # owner first, then apply the write-through on top.
                self._start_recall(msg, msg.op_id)
        elif mtype is D_NOT:
            if msg.src == self.reserved_client and self.state == VALID:
                self.state = INVALID
                self.owner = msg.src
                self.reserved_client = None
                self.ctx.send(msg.src, D_GNT, PP_NONE, msg.op_id,
                              initiator=msg.token.operation_initiator)
            else:
                # overtaken by another serialized operation.
                self.ctx.send(msg.src, D_NACK, PP_NONE, msg.op_id,
                              initiator=msg.token.operation_initiator)
        elif mtype is EJ:
            if self.reserved_client == msg.src:
                self.reserved_client = None
        elif mtype is WB:
            if self.owner != msg.src:
                return  # stale write-back
            self.value = msg.payload["value"]
            self.state = VALID
            self.owner = None
            self._busy = False
            trigger, self._recall_for = self._recall_for, None
            if trigger is None:
                self._release_held()
                return
            if isinstance(trigger, Operation):
                if trigger.kind == READ:
                    self.ctx.complete(trigger, self.value)
                else:
                    self._apply_own_write(trigger)
            elif trigger.token.type is R_PER:
                self._grant_read(trigger.src, trigger.op_id,
                                 trigger.token.operation_initiator)
            elif trigger.token.type is W_PER:
                self.value = trigger.payload["value"]
                self.reserved_client = trigger.src
                self.ctx.broadcast_except(
                    [trigger.src], W_INV, PP_NONE,
                    trigger.op_id, initiator=trigger.token.operation_initiator,
                )
            else:
                self._grant_ownership(trigger.src, trigger.op_id,
                                      trigger.token.operation_initiator)
            self._release_held()
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_once sequencer: unexpected {mtype}")

    def _downgrade_reserved(self, op_id: int) -> None:
        """Replace the bus's snooped-read downgrade with a DGR token."""
        if self.reserved_client is not None:
            self.ctx.send(self.reserved_client, DGR, PP_NONE, op_id)
            self.reserved_client = None

    def _grant_read(self, reader: int, op_id: int, initiator: int) -> None:
        self._downgrade_reserved(op_id)
        self.ctx.send(reader, R_GNT, PP_USER_INFO, op_id,
                      payload={"value": self.value}, initiator=initiator)

    def _grant_ownership(self, writer: int, op_id: int, initiator: int) -> None:
        self.ctx.send(writer, O_GNT, PP_USER_INFO, op_id,
                      payload={"value": self.value}, initiator=initiator)
        self.ctx.broadcast_except([writer], W_INV, PP_NONE, op_id,
                                  initiator=initiator)
        self.state = INVALID
        self.owner = writer
        self.reserved_client = None

    def _start_recall(self, trigger, op_id: int) -> None:
        self._busy = True
        self._recall_for = trigger
        self.ctx.send(self.owner, RCL, PP_NONE, op_id)


SPEC = ProtocolSpec(
    name="write_once",
    display_name="Write-Once",
    client_states=(INVALID, VALID, RESERVED, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=WriteOnceClient,
    sequencer_factory=WriteOnceSequencer,
    notes=(
        "Reconstructed: first write is written through (P+N, -> RESERVED); "
        "second write is a 2-token serialized upgrade; DGR token replaces "
        "the bus's snooped-read downgrade; misses per DESIGN.md."
    ),
)
