"""Distributed Write-Through-V protocol (paper appendix, Figure 9).

The second distributed version of Write-Through: "the client's write
operation updates the copy at the sequencer **and its own copy**"; the
sequencer's copy has the single state ``VALID`` and the client copies are
``VALID``/``INVALID``.

Reconstruction (DESIGN.md): keeping the writer's copy coherent requires the
writer to learn the serialization point of its write, so the write is a
blocking **two-phase** operation:

1. ``W-PER`` token to the sequencer (cost 1); the local queue is disabled;
2. the sequencer serializes the write and answers ``W-GNT`` (cost 1, or
   ``S + 1`` carrying the user information when its directory shows the
   writer's copy is stale);
3. the writer installs the grant, applies its own parameters, replies with
   the write parameters (``UPD``, cost ``P + 1``) and re-enables its queue;
4. the sequencer applies the parameters and invalidates the other ``N - 1``
   clients.

Write cost from a VALID copy: ``P + N + 2`` — exactly two tokens more than
Write-Through, which reproduces the paper's Write-Through-V vs Write-Through
crossover line ``p = S/(S+2) - a*sigma*S/(S+2)`` identically (Section 5.1).
Write cost from an INVALID copy: ``P + S + N + 2``.  Read-miss cost:
``S + 2`` as in Write-Through.

The sequencer holds (buffers, at zero message cost) every other request
between a ``W-GNT`` and the arrival of the corresponding parameters so that
writes stay globally serialized.
"""

from __future__ import annotations

from typing import List, Optional

from ..machines.message import (
    Message, R_PER, W_PER, R_GNT, W_INV, W_GNT, UPD, EJ, PP_NONE, PP_WRITE,
    PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["WriteThroughVClient", "WriteThroughVSequencer", "SPEC"]

INVALID = "INVALID"
VALID = "VALID"


class WriteThroughVClient(ProtocolProcess):
    """Client-side Write-Through-V process."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # the sequencer's validity directory drives the W-GNT user-
            # information decision, so a valid copy must announce its
            # departure (one token); ejecting an invalid copy is free.
            if self.state == VALID:
                self.state = INVALID
                self.ctx.send(self.ctx.sequencer_id, EJ,
                              PP_NONE, op.op_id)
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.state == VALID:
                self.ctx.complete(op, self.value)
            else:
                self._pending = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.ctx.sequencer_id, R_PER, PP_NONE, op.op_id)
        else:
            # two-phase write: ask for the serialization point first.
            self._pending = op
            self.ctx.disable_local_queue()
            self.ctx.send(self.ctx.sequencer_id, W_PER, PP_NONE, op.op_id)

    def on_message(self, msg: Message) -> None:
        if msg.token.type is R_GNT:
            self.value = msg.payload["value"]
            self.state = VALID
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        elif msg.token.type is W_GNT:
            op, self._pending = self._pending, None
            if msg.payload and "value" in msg.payload:
                # the grant carried the user information: refresh first.
                self.value = msg.payload["value"]
            # apply our own parameters and push them to the sequencer.
            self.value = op.params
            self.state = VALID
            self.ctx.send(self.ctx.sequencer_id, UPD, PP_WRITE, op.op_id,
                          payload={"value": op.params})
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif msg.token.type is W_INV:
            self.state = INVALID
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_through_v client: unexpected {msg.token.type}")


class WriteThroughVSequencer(ProtocolProcess):
    """Sequencer-side Write-Through-V process with a validity directory."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        #: clients whose copies the sequencer knows to be valid
        self.valid_set = set()
        #: writer currently between W-GNT and its UPD, if any
        self._granted_writer: Optional[int] = None
        self._held: List[Message] = []
        self.serialized_writes = 0

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            self.ctx.complete(op)  # the home copy is pinned
            return
        if op.kind == READ:
            self.ctx.complete(op, self.value)
        else:
            if self._granted_writer is not None:
                # an in-flight two-phase client write owns the serialization
                # point; queue our own write behind it at zero message cost.
                self._held.append(op)
                return
            self.value = op.params
            self.serialized_writes += 1
            self.valid_set.clear()
            self.ctx.broadcast_except([], W_INV, PP_NONE, op.op_id)
            self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        if self._granted_writer is not None and msg.src != self._granted_writer:
            # hold every other request until the granted write's parameters
            # arrive, keeping writes globally serialized (no message cost).
            self._held.append(msg)
            return
        mtype = msg.token.type
        if mtype is R_PER:
            self.valid_set.add(msg.src)
            self.ctx.send(msg.src, R_GNT, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value},
                          initiator=msg.token.operation_initiator)
        elif mtype is W_PER:
            needs_ui = msg.src not in self.valid_set
            self._granted_writer = msg.src
            self.ctx.send(msg.src, W_GNT,
                          PP_USER_INFO if needs_ui else PP_NONE, msg.op_id,
                          payload={"value": self.value} if needs_ui else {},
                          initiator=msg.token.operation_initiator)
        elif mtype is EJ:
            self.valid_set.discard(msg.src)
        elif mtype is UPD:
            writer = msg.src
            self.value = msg.payload["value"]
            self.serialized_writes += 1
            self.valid_set = {writer}
            self._granted_writer = None
            self.ctx.broadcast_except([writer], W_INV, PP_NONE, msg.op_id,
                                      initiator=msg.token.operation_initiator)
            self._release_held()
        else:  # pragma: no cover - specification error
            raise ValueError(f"write_through_v sequencer: unexpected {mtype}")

    def _release_held(self) -> None:
        """Re-process requests buffered behind a two-phase write."""
        held, self._held = self._held, []
        for item in held:
            if self._granted_writer is not None:
                self._held.append(item)
                continue
            if isinstance(item, Operation):
                self.on_request(item)
            else:
                self.on_message(item)


SPEC = ProtocolSpec(
    name="write_through_v",
    display_name="Write-Through-V",
    client_states=(INVALID, VALID),
    sequencer_states=(VALID,),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=WriteThroughVClient,
    sequencer_factory=WriteThroughVSequencer,
    hit_states=frozenset({VALID}),
    notes=(
        "Reconstructed: blocking two-phase write keeps the writer's copy "
        "valid; write cost P+N+2 from VALID (matches the paper's WTV-vs-WT "
        "crossover line exactly), P+S+N+2 from INVALID."
    ),
)
