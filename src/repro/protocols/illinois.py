"""Distributed Illinois protocol (paper appendix; same diagrams as Synapse).

The paper: "The state transition diagram for the Illinois protocol is the
same as for the Synapse protocol.  The difference between these two
protocols is that the sequencer in the Illinois protocol updates all the
time the address of the client which has the copy in DIRTY state."

Reconstructed differences from Synapse (DESIGN.md):

* **Upgrade writes**: a write hit on a ``VALID`` copy acquires ownership
  without a data transfer — ``O-PER`` (1), ``O-GNT`` token (1), ``W-INV`` to
  the other ``N - 1`` clients — cost ``N + 1`` (Synapse pays ``S + N + 1``).
  The sequencer decides from its validity directory whether the grant must
  carry the user information, so the decision is made at the serialization
  point and is race-free.
* **Remote-dirty service is direct**: the recalled owner stays ``VALID``
  (cache-to-cache supply) and the sequencer answers the requester
  immediately after the write-back — no retry.  A remote-dirty read costs
  ``2S + 4`` and a remote-dirty write ``2S + N + 3``.
"""

from __future__ import annotations

from typing import Optional, Set

from ..machines.message import (
    Message, R_PER, R_GNT, W_INV, O_PER, O_GNT, RCL, WB, EJ, PP_NONE,
    PP_USER_INFO,
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

__all__ = ["IllinoisClient", "IllinoisSequencer", "SPEC"]

INVALID = "INVALID"
VALID = "VALID"
DIRTY = "DIRTY"


class IllinoisClient(ProtocolProcess):
    """Client-side Illinois process."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # DIRTY: flush home (WB + ui).  VALID: one token keeps the
            # sequencer's validity directory exact (it decides whether
            # ownership grants need the user information).
            if self.state == DIRTY:
                self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO,
                              op.op_id, payload={"value": self.value})
            elif self.state == VALID:
                self.ctx.send(self.ctx.sequencer_id, EJ,
                              PP_NONE, op.op_id)
            self.state = INVALID
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.state in (VALID, DIRTY):
                self.ctx.complete(op, self.value)
            else:
                self._pending = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.ctx.sequencer_id, R_PER, PP_NONE, op.op_id)
        else:
            if self.state == DIRTY:
                self.value = op.params
                self.ctx.complete(op)
            else:
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
            if msg.payload and "value" in msg.payload:
                self.value = msg.payload["value"]
            self.value = op.params
            self.state = DIRTY
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif mtype is RCL:
            if self.state != DIRTY:
                return  # stale recall; a voluntary write-back beat it
            # cache-to-cache supply: write back but stay VALID.
            self.state = VALID
            self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value})
        elif mtype is W_INV:
            self.state = INVALID
        else:  # pragma: no cover - specification error
            raise ValueError(f"illinois client: unexpected {mtype}")


class IllinoisSequencer(HoldingMixin, ProtocolProcess):
    """Sequencer-side Illinois process: owner address + validity directory."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        self._init_holding()
        self.owner: Optional[int] = None
        #: clients the sequencer knows hold a valid copy
        self.valid_set: Set[int] = set()
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
        self.valid_set.clear()
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
        elif mtype is EJ:
            self.valid_set.discard(msg.src)
        elif mtype is WB:
            if self.owner != msg.src:
                return  # stale write-back
            self.value = msg.payload["value"]
            self.state = VALID
            voluntary = self._recall_for is None
            if not voluntary:
                # the supplier stays VALID on a recall; on a voluntary
                # (eject) write-back it dropped its copy.
                self.valid_set.add(self.owner)
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
                # direct service — no retry (the Illinois difference).
                self._grant_read(trigger.src, trigger.op_id,
                                 trigger.token.operation_initiator)
            else:
                self._grant_ownership(trigger.src, trigger.op_id,
                                      trigger.token.operation_initiator)
            self._release_held()
        else:  # pragma: no cover - specification error
            raise ValueError(f"illinois sequencer: unexpected {mtype}")

    def _grant_read(self, reader: int, op_id: int, initiator: int) -> None:
        self.valid_set.add(reader)
        self.ctx.send(reader, R_GNT, PP_USER_INFO, op_id,
                      payload={"value": self.value}, initiator=initiator)

    def _grant_ownership(self, writer: int, op_id: int, initiator: int) -> None:
        """Grant exclusivity; skip the data transfer for a known-valid writer."""
        needs_ui = writer not in self.valid_set
        self.ctx.send(writer, O_GNT, PP_USER_INFO if needs_ui else PP_NONE,
                      op_id, payload={"value": self.value} if needs_ui else {},
                      initiator=initiator)
        self.ctx.broadcast_except([writer], W_INV, PP_NONE, op_id,
                                  initiator=initiator)
        self.valid_set.clear()
        self.state = INVALID
        self.owner = writer

    def _start_recall(self, trigger, op_id: int) -> None:
        self._busy = True
        self._recall_for = trigger
        self.ctx.send(self.owner, RCL, PP_NONE, op_id)


SPEC = ProtocolSpec(
    name="illinois",
    display_name="Illinois",
    client_states=(INVALID, VALID, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=IllinoisClient,
    sequencer_factory=IllinoisSequencer,
    hit_states=frozenset({VALID, DIRTY}),
    notes=(
        "Reconstructed: data-less upgrade writes (N+1), direct remote-dirty "
        "service with the supplier staying VALID (2S+4 read, 2S+N+3 write)."
    ),
)
