"""Distributed Berkeley protocol (paper appendix, Figure 12).

"The role of the sequencer can be taken by different nodes during protocol
execution.  The copy at the sequencer can be in one of two states: DIRTY or
SHARED-DIRTY.  The copy at the client can be in one of two states: VALID or
INVALID."

In Berkeley the *owner* (the node holding the sequencer role for the object)
migrates to every writer, which is why under read disturbance the activity
center becomes the owner and Berkeley beats the other invalidation protocols
(paper Section 5.1).  Reconstruction (DESIGN.md):

* every node tracks the *believed owner*; ownership changes ride on the
  invalidation broadcasts every ownership transfer already emits, so the
  tracking is free.  A request reaching a former owner is forwarded to its
  believed owner (cost 1 per hop) — this only happens under concurrent
  racing requests, one source of the paper's analysis-vs-simulation
  discrepancy;
* non-owner write: ``O-PER`` (1) to the owner; the owner answers
  ``O-GNT`` — with the user information (``S + 1``) iff its validity
  directory shows the writer's copy stale, else a bare token (1) — sends
  ``W-INV`` announcing the new owner to the other ``N - 1`` nodes, and
  invalidates itself.  The writer applies its parameters locally and
  becomes the ``DIRTY`` owner.  Cost ``N + 1`` from a valid copy,
  ``S + N + 1`` from an invalid one;
* owner write: free when ``DIRTY``; when ``SHARED-DIRTY`` it invalidates
  the other ``N`` nodes (cost ``N``) and returns to ``DIRTY``;
* non-owner read miss: ``R-PER`` (1), ``R-GNT + ui`` (``S + 1``) from the
  owner, which downgrades itself to ``SHARED-DIRTY``; cost ``S + 2``;
* the validity directory transfers with ownership: a new owner starts with
  ``{itself}`` valid (everyone else was just invalidated) and adds readers
  it grants.
"""

from __future__ import annotations

from typing import Optional, Set

from ..machines.message import (
    Message, R_PER, R_GNT, W_INV, O_PER, O_GNT, EJ, PP_NONE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["BerkeleyProcess", "SPEC", "make_client", "make_sequencer"]

INVALID = "INVALID"
VALID = "VALID"
DIRTY = "DIRTY"
SHARED_DIRTY = "SHARED-DIRTY"

#: owner-role states
OWNER_STATES = (DIRTY, SHARED_DIRTY)


class BerkeleyProcess(ProtocolProcess):
    """Berkeley protocol process; the same class serves every node.

    The node whose copy is in an owner state (``DIRTY``/``SHARED-DIRTY``)
    holds the sequencer role.  Initially that is node ``N + 1``.
    """

    def __init__(self, ctx: ProcessContext, initial_state: str):
        super().__init__(ctx, initial_state=initial_state)
        #: where this node believes the owner is
        self.believed_owner: int = ctx.sequencer_id
        #: owner-only: nodes known to hold a valid copy (incl. the owner)
        self.valid_set: Set[int] = {ctx.node_id} if initial_state in OWNER_STATES else set()
        self._pending: Optional[Operation] = None

    # ------------------------------------------------------------------

    @property
    def is_owner(self) -> bool:
        """Whether this node currently holds the sequencer (owner) role."""
        return self.state in OWNER_STATES

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # the owner's copy is the only current one: pinned (real
            # systems pin the backing copy).  A VALID copy announces its
            # departure so the owner's validity directory stays exact.
            if self.state == VALID:
                self.state = INVALID
                self.ctx.send(self.believed_owner, EJ,
                              PP_NONE, op.op_id)
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.is_owner or self.state == VALID:
                self.ctx.complete(op, self.value)
            else:
                self._pending = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.believed_owner, R_PER, PP_NONE, op.op_id)
            return
        # write
        if self.state == DIRTY:
            self.value = op.params
            self.ctx.complete(op)
        elif self.state == SHARED_DIRTY:
            # invalidate every other node; become exclusive again.
            self.value = op.params
            self.state = DIRTY
            self.valid_set = {self.ctx.node_id}
            self.ctx.broadcast_except([], W_INV, PP_NONE, op.op_id,
                                      payload={"owner": self.ctx.node_id})
            self.ctx.complete(op)
        else:
            # request ownership from the believed owner.
            self._pending = op
            self.ctx.disable_local_queue()
            self.ctx.send(self.believed_owner, O_PER, PP_NONE, op.op_id)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype in (R_PER, O_PER):
            if not self.is_owner:
                # stale addressing under racing requests: forward.
                self.ctx.send(self.believed_owner, mtype, PP_NONE, msg.op_id,
                              initiator=msg.token.operation_initiator)
                return
            if mtype is R_PER:
                self._serve_read(msg)
            else:
                self._transfer_ownership(msg)
        elif mtype is R_GNT:
            self.value = msg.payload["value"]
            self.state = VALID
            self.believed_owner = msg.payload["owner"]
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        elif mtype is O_GNT:
            op, self._pending = self._pending, None
            if "value" in msg.payload:
                self.value = msg.payload["value"]
            self.value = op.params
            self.state = DIRTY
            self.believed_owner = self.ctx.node_id
            self.valid_set = set(msg.payload["valid_set"]) | {self.ctx.node_id}
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif mtype is W_INV:
            if not self.is_owner:
                self.state = INVALID
            self.believed_owner = msg.payload["owner"]
        elif mtype is EJ:
            if self.is_owner:
                self.valid_set.discard(msg.token.operation_initiator)
            # at a former owner the entry no longer exists: nothing to do.
        else:  # pragma: no cover - specification error
            raise ValueError(f"berkeley: unexpected {mtype}")

    # ------------------------------------------------------------------

    def _serve_read(self, msg: Message) -> None:
        """Owner serves a read miss and downgrades to SHARED-DIRTY.

        The reply goes to the operation initiator (a forwarded request's
        ``src`` is the forwarder, not the requester).
        """
        reader = msg.token.operation_initiator
        self.state = SHARED_DIRTY
        self.valid_set.add(reader)
        self.ctx.send(reader, R_GNT, PP_USER_INFO, msg.op_id,
                      payload={"value": self.value, "owner": self.ctx.node_id},
                      initiator=reader)

    def _transfer_ownership(self, msg: Message) -> None:
        """Owner hands the object to a writer and invalidates itself."""
        writer = msg.token.operation_initiator
        needs_ui = writer not in self.valid_set
        payload = {"valid_set": []}
        if needs_ui:
            payload["value"] = self.value
        self.ctx.send(writer, O_GNT, PP_USER_INFO if needs_ui else PP_NONE,
                      msg.op_id, payload=payload,
                      initiator=msg.token.operation_initiator)
        # announce the new owner to the other N - 1 nodes and invalidate
        # them; invalidate ourselves as well (ownership moved away).
        self.ctx.broadcast_except([writer], W_INV, PP_NONE, msg.op_id,
                                  payload={"owner": writer},
                                  initiator=msg.token.operation_initiator)
        self.state = INVALID
        self.valid_set = set()
        self.believed_owner = writer


def make_client(ctx: ProcessContext) -> BerkeleyProcess:
    """Client factory: copies start INVALID."""
    return BerkeleyProcess(ctx, INVALID)


def make_sequencer(ctx: ProcessContext) -> BerkeleyProcess:
    """Initial-owner factory: node ``N + 1`` starts as the DIRTY owner."""
    return BerkeleyProcess(ctx, DIRTY)


SPEC = ProtocolSpec(
    name="berkeley",
    display_name="Berkeley",
    client_states=(INVALID, VALID),
    sequencer_states=(DIRTY, SHARED_DIRTY),
    invalidation_based=True,
    migrating_owner=True,
    client_factory=make_client,
    sequencer_factory=make_sequencer,
    hit_states=frozenset({VALID, DIRTY, SHARED_DIRTY}),
    owner_states=frozenset(OWNER_STATES),
    notes=(
        "Reconstructed: ownership migrates to every writer (N+1 / S+N+1); "
        "owner writes cost 0 (DIRTY) or N (SHARED-DIRTY); read misses S+2."
    ),
)
