"""Distributed Dragon protocol (paper appendix, Figure 11).

"The role of the sequencer can be taken by different nodes during protocol
execution.  The sequencer broadcasts the write operation parameters to all
clients.  The copy at the sequencer has only one state: SHARED-DIRTY.  The
copy at the client has also only one state: SHARED-CLEAN."

Dragon is a pure *update* protocol: every copy is permanently valid, reads
are always local and free.  Under full replication the writer knows every
replica holder, so the distributed adaptation broadcasts the write
parameters **directly** from the writer to the other ``N`` nodes — cost
``N * (P + 1)`` per write, the paper's ideal-workload formula
``acc = p * N * (P + 1)`` — and the writer takes over the ``SHARED-DIRTY``
(sequencer) role, announcing it inside the update messages.

Without a fixed serialization point, updates from *concurrent* writers can
arrive in different orders at different nodes; the adaptation restores
convergence with a last-writer-wins tag ``(issue time, writer id)`` carried
by every update: a replica applies an update only when its tag exceeds the
replica's current tag, so all copies converge to the globally maximal write
and exactly one node ends in ``SHARED-DIRTY``.  (The analytic model is
unaffected: its trials are atomic.  This ordering freedom is the Dragon
entry of DESIGN.md's concurrency notes.)
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..machines.message import (
    Message, R_PER, R_GNT, UPD, PP_NONE, PP_WRITE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["DragonProcess", "SPEC", "make_client", "make_sequencer"]

SHARED_CLEAN = "SHARED-CLEAN"
SHARED_DIRTY = "SHARED-DIRTY"
#: Section 6 extension: an ejected replica (not a paper Dragon state; the
#: paper assumes permanent full replication)
INVALID = "INVALID"


class DragonProcess(ProtocolProcess):
    """Dragon protocol process; the same class serves every node."""

    def __init__(self, ctx: ProcessContext, initial_state: str):
        super().__init__(ctx, initial_state=initial_state, initial_value=0)
        #: last-writer-wins tag (issue time, writer sequence, writer id)
        self.tag: Tuple[float, int, int] = (0.0, 0, 0)
        #: where this node believes the SHARED-DIRTY owner is
        self.believed_owner: int = ctx.sequencer_id
        #: monotonically increasing local write counter (tag component)
        self._write_seq = 0
        #: operation blocked on a re-fetch after an eject, if any
        self._pending: Optional[Operation] = None

    @property
    def is_owner(self) -> bool:
        """Whether this node currently holds the SHARED-DIRTY role."""
        return self.state == SHARED_DIRTY

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # the SHARED-DIRTY copy is the object's backing store: pinned.
            if self.state == SHARED_CLEAN:
                self.state = INVALID
            self.ctx.complete(op)
            return
        if self.state == INVALID:
            # ejected replica: re-fetch from the owner first (S + 2); a
            # write then proceeds with its usual broadcast.
            self._pending = op
            self.ctx.disable_local_queue()
            self.ctx.send(self.believed_owner, R_PER,
                          PP_NONE, op.op_id)
            return
        if op.kind == READ:
            # every resident Dragon copy is valid.
            self.ctx.complete(op, self.value)
            return
        self._perform_write(op)

    def _perform_write(self, op: Operation) -> None:
        self._write_seq += 1
        tag = (op.issue_time, self._write_seq, self.ctx.node_id)
        if tag > self.tag:
            self.value = op.params
            self.tag = tag
        self.state = SHARED_DIRTY
        self.believed_owner = self.ctx.node_id
        # broadcast the parameters to the other N nodes (cost N*(P+1)).
        self.ctx.broadcast_except(
            [], UPD, PP_WRITE, op.op_id,
            payload={"value": op.params, "owner": self.ctx.node_id,
                     "tag": tag},
        )
        self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is UPD:
            if self.state == INVALID:
                # no resident copy: partial updates cannot apply, but the
                # ownership announcement keeps the believed owner fresh
                # (otherwise a later re-fetch pays forwarding hops).
                tag = tuple(msg.payload["tag"])
                if tag > self.tag:
                    self.tag = tag
                    self.believed_owner = msg.payload["owner"]
                return
            tag = tuple(msg.payload["tag"])
            if tag > self.tag:
                self.value = msg.payload["value"]
                self.tag = tag
                self.believed_owner = msg.payload["owner"]
                if self.is_owner:
                    # a newer write exists: the SHARED-DIRTY role moved on.
                    self.state = SHARED_CLEAN
            # older updates are superseded; nothing to apply.
        elif mtype is R_PER:
            if not self.is_owner:
                # stale addressing: forward along the ownership chain.
                self.ctx.send(self.believed_owner, mtype, PP_NONE, msg.op_id,
                              initiator=msg.token.operation_initiator)
                return
            reader = msg.token.operation_initiator
            self.ctx.send(
                reader, R_GNT, PP_USER_INFO, msg.op_id,
                payload={"value": self.value, "owner": self.ctx.node_id,
                         "tag": self.tag},
                initiator=reader,
            )
        elif mtype is R_GNT:
            self.value = msg.payload["value"]
            self.tag = tuple(msg.payload["tag"])
            self.believed_owner = msg.payload["owner"]
            self.state = SHARED_CLEAN
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            if op.kind == READ:
                self.ctx.complete(op, self.value)
            else:
                self._perform_write(op)
        else:  # pragma: no cover - specification error
            raise ValueError(f"dragon: unexpected {mtype}")


def make_client(ctx: ProcessContext) -> DragonProcess:
    """Client factory: copies start SHARED-CLEAN (full replication)."""
    return DragonProcess(ctx, SHARED_CLEAN)


def make_sequencer(ctx: ProcessContext) -> DragonProcess:
    """Initial-owner factory: node ``N + 1`` starts SHARED-DIRTY."""
    return DragonProcess(ctx, SHARED_DIRTY)


SPEC = ProtocolSpec(
    name="dragon",
    display_name="Dragon",
    client_states=(SHARED_CLEAN,),
    sequencer_states=(SHARED_DIRTY,),
    invalidation_based=False,
    migrating_owner=True,
    client_factory=make_client,
    sequencer_factory=make_sequencer,
    hit_states=frozenset({SHARED_CLEAN, SHARED_DIRTY}),
    owner_states=frozenset({SHARED_DIRTY}),
    notes=(
        "Reconstructed update protocol: the writer broadcasts parameters "
        "directly to the other N nodes (cost N*(P+1)) and takes the "
        "SHARED-DIRTY role; concurrent writes converge via "
        "last-writer-wins tags."
    ),
)
