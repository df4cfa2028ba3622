"""Distributed Synapse protocol (paper appendix, Figures 7-8).

Client copy states: ``INVALID`` (start), ``VALID``, ``DIRTY``; sequencer copy
states: ``VALID`` (start), ``INVALID`` (a client holds the only up-to-date
copy).  Reconstruction notes (DESIGN.md):

* Writes that do not hit a ``DIRTY`` copy acquire exclusive ownership **with
  a data transfer** — bus Synapse treats write hits like misses — at cost
  ``S + N + 1``: ``O-PER`` (1), ``O-GNT + ui`` (``S + 1``), ``W-INV`` to the
  other ``N - 1`` clients.  The sequencer's copy becomes ``INVALID`` and it
  records the new owner.
* A request that finds the sequencer ``INVALID`` triggers a recall: ``RCL``
  (1) to the dirty owner, which writes back (``WB + ui``, ``S + 1``) and
  **self-invalidates** (the Synapse signature), after which the sequencer —
  faithful to the bus protocol's "memory write-back then retry" — sends a
  ``RETRY`` token (1) and the requester re-issues its request (1).  A
  remote-dirty read therefore costs ``2S + 6`` and a remote-dirty write
  ``2S + N + 5``.
* Reads and writes on a ``DIRTY`` copy, and reads on a ``VALID`` copy, are
  free.
"""

from __future__ import annotations

from typing import Optional

from ..machines.message import (
    Message, R_PER, R_GNT, W_INV, O_PER, O_GNT, RCL, WB, RETRY, PP_NONE,
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

__all__ = ["SynapseClient", "SynapseSequencer", "SPEC"]

INVALID = "INVALID"
VALID = "VALID"
DIRTY = "DIRTY"


class SynapseClient(ProtocolProcess):
    """Client-side Synapse process."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # a DIRTY copy is the only current one: flush it home first
            # (WB + ui, cost S+1); VALID/INVALID copies drop silently
            # (Synapse grants always carry the user information, so the
            # sequencer needs no validity directory).
            if self.state == DIRTY:
                self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO,
                              op.op_id, payload={"value": self.value})
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
                # write hit or miss: acquire exclusive ownership with data.
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
        elif mtype is RETRY:
            # memory write-back finished; re-issue the pending request.
            op = self._pending
            retry_type = R_PER if op.kind == READ else O_PER
            self.ctx.send(self.ctx.sequencer_id, retry_type, PP_NONE, op.op_id)
        elif mtype is RCL:
            if self.state != DIRTY:
                # stale recall: a voluntary (eject) write-back already
                # satisfied the sequencer; nothing to supply.
                return
            # we hold the only valid copy: write back and self-invalidate.
            self.state = INVALID
            self.ctx.send(self.ctx.sequencer_id, WB, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value})
        elif mtype is W_INV:
            self.state = INVALID
        else:  # pragma: no cover - specification error
            raise ValueError(f"synapse client: unexpected {mtype}")


class SynapseSequencer(HoldingMixin, ProtocolProcess):
    """Sequencer-side Synapse process with owner directory and recall."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        self._init_holding()
        self.owner: Optional[int] = None
        self._recall_for: Optional[object] = None  # Message or Operation

    # -- application requests at the sequencer node --------------------

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
        """Sequencer write with a VALID copy: invalidate all N clients."""
        self.value = op.params
        self.ctx.broadcast_except([], W_INV, PP_NONE, op.op_id)
        self.ctx.complete(op)

    # -- protocol messages ---------------------------------------------

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if self._busy and mtype is not WB:
            self._hold(msg)
            return
        if mtype is R_PER:
            if self.state == VALID:
                self.ctx.send(msg.src, R_GNT, PP_USER_INFO, msg.op_id,
                              payload={"value": self.value},
                              initiator=msg.token.operation_initiator)
            else:
                self._start_recall(msg, msg.op_id)
        elif mtype is O_PER:
            if self.state == VALID:
                self._grant_ownership(msg.src, msg.op_id, msg.token.operation_initiator)
            else:
                self._start_recall(msg, msg.op_id)
        elif mtype is WB:
            if self.owner != msg.src:
                # stale write-back (ownership already moved on): ignore.
                return
            # the dirty owner wrote back and self-invalidated.
            self.value = msg.payload["value"]
            self.state = VALID
            self.owner = None
            self._busy = False
            trigger, self._recall_for = self._recall_for, None
            if trigger is None:
                # voluntary write-back (owner eject): nothing pending.
                self._release_held()
                return
            if isinstance(trigger, Operation):
                # our own operation triggered the recall: finish it locally.
                if trigger.kind == READ:
                    self.ctx.complete(trigger, self.value)
                else:
                    self._apply_own_write(trigger)
            else:
                # bus-Synapse semantics: tell the requester to retry.
                self.ctx.send(trigger.src, RETRY, PP_NONE, trigger.op_id,
                              initiator=trigger.token.operation_initiator)
            self._release_held()
        else:  # pragma: no cover - specification error
            raise ValueError(f"synapse sequencer: unexpected {mtype}")

    # -- helpers ---------------------------------------------------------

    def _grant_ownership(self, writer: int, op_id: int, initiator: int) -> None:
        """Ownership grant with data; invalidate the other N-1 clients."""
        self.ctx.send(writer, O_GNT, PP_USER_INFO, op_id,
                      payload={"value": self.value}, initiator=initiator)
        self.ctx.broadcast_except([writer], W_INV, PP_NONE, op_id,
                                  initiator=initiator)
        self.state = INVALID
        self.owner = writer

    def _start_recall(self, trigger, op_id: int) -> None:
        """Ask the dirty owner to write back; hold all other work."""
        self._busy = True
        self._recall_for = trigger
        self.ctx.send(self.owner, RCL, PP_NONE, op_id)


SPEC = ProtocolSpec(
    name="synapse",
    display_name="Synapse",
    client_states=(INVALID, VALID, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=SynapseClient,
    sequencer_factory=SynapseSequencer,
    notes=(
        "Reconstructed: ownership writes always transfer data (S+N+1); "
        "remote-dirty requests pay write-back plus retry (2S+6 read, "
        "2S+N+5 write); recalled owners self-invalidate."
    ),
)
