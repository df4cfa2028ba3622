"""Distributed Firefly protocol (paper appendix).

"The copy at the sequencer has only one state: VALID.  The copy at the
client has also only one state: SHARED.  The client always passes the write
operation parameters to the sequencer.  The sequencer broadcasts the write
operation parameters to all clients."

Firefly is the fixed-sequencer update protocol: all copies are permanently
valid and reads are free; every write funnels through node ``N + 1``:

* client write: ``UPD + w`` to the sequencer (``P + 1``); the sequencer
  applies it, broadcasts ``UPD + w`` to the other ``N - 1`` clients and
  acknowledges the writer with an ``ACK`` token (1), which is the writer's
  serialization point for applying its own parameters — total
  ``N * (P + 1) + 1``, reproducing the paper's ideal-workload formula
  ``acc = p * (N * (P + 1) + 1)``;
* sequencer write: broadcast to all ``N`` clients — ``N * (P + 1)``.

The client's local queue is disabled between the update and its ``ACK`` so
writes from one node are applied in serialization order everywhere.

Section 6 extension (bounded replica caches): an ejecting client sends a
one-token ``EJ`` departure notice, and the sequencer — the natural
directory for a fixed-sequencer update protocol — drops departed clients
from its update fan-out until they re-fetch (``R-PER``) or write (their
``ACK`` re-installs the copy).  Updates to a departed client were ignored
anyway, so the multicast is semantically identical to the blind broadcast;
it just stops paying ``P + 1`` per evicted copy per write.  This is where
partial replication can undercut full replication: bounding the replica
set trades refetch cost (``S + 2`` per capacity miss) against update
fan-out (``P + 1`` per resident copy per write).  With no cache configured
nothing ever departs and the protocol is byte-identical to the paper's.
"""

from __future__ import annotations

from typing import Optional, Set

from ..machines.message import (
    Message, R_PER, R_GNT, UPD, ACK, EJ, PP_NONE, PP_WRITE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["FireflyClient", "FireflySequencer", "SPEC"]

SHARED = "SHARED"
VALID = "VALID"
#: Section 6 extension: an ejected client replica
INVALID = "INVALID"


class FireflyClient(ProtocolProcess):
    """Client-side Firefly process: the single copy state SHARED."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=SHARED, initial_value=0)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # announce the departure so the sequencer stops sending this
            # copy updates (one token); ejecting an ejected copy is free.
            if self.state == SHARED:
                self.ctx.send(self.ctx.sequencer_id, EJ,
                              PP_NONE, op.op_id)
            self.state = INVALID
            self.ctx.complete(op)
            return
        if op.kind == READ:
            if self.state == SHARED:
                self.ctx.complete(op, self.value)
            else:
                # re-fetch the copy from the sequencer (S + 2).
                self._pending = op
                self.ctx.disable_local_queue()
                self.ctx.send(self.ctx.sequencer_id, R_PER,
                              PP_NONE, op.op_id)
            return
        self._pending = op
        self.ctx.disable_local_queue()
        self.ctx.send(
            self.ctx.sequencer_id,
            UPD,
            PP_WRITE,
            op.op_id,
            # an ejected writer needs the whole copy back with the ACK
            payload={"value": op.params,
                     "needs_ui": self.state == INVALID},
        )

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is UPD:
            if self.state == SHARED:
                self.value = msg.payload["value"]
            # ejected copies ignore partial updates.
        elif mtype is ACK:
            op, self._pending = self._pending, None
            if msg.payload and "value" in msg.payload:
                self.value = msg.payload["value"]
            self.value = op.params
            self.state = SHARED
            self.ctx.enable_local_queue()
            self.ctx.complete(op)
        elif mtype is R_GNT:
            self.value = msg.payload["value"]
            self.state = SHARED
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        else:  # pragma: no cover - specification error
            raise ValueError(f"firefly client: unexpected {mtype}")


class FireflySequencer(ProtocolProcess):
    """Sequencer-side Firefly process: the single copy state VALID."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID, initial_value=0)
        self.serialized_writes = 0
        #: clients that announced an eject (``EJ``) and did not re-fetch
        #: or write since; they are skipped by the update fan-out.
        self.departed: Set[int] = set()

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            self.ctx.complete(op)  # the sequencer's copy is pinned
            return
        if op.kind == READ:
            self.ctx.complete(op, self.value)
            return
        self.value = op.params
        self.serialized_writes += 1
        self.ctx.broadcast_except(sorted(self.departed), UPD, PP_WRITE,
                                  op.op_id, payload={"value": op.params})
        self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is EJ:
            self.departed.add(msg.src)
            return
        if mtype is R_PER:
            # an ejected client re-fetches its copy (and rejoins the
            # update fan-out: the grant re-installs a SHARED copy).
            self.departed.discard(msg.src)
            self.ctx.send(msg.src, R_GNT, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value},
                          initiator=msg.token.operation_initiator)
            return
        if mtype is not UPD:  # pragma: no cover
            raise ValueError(f"firefly sequencer: unexpected {mtype}")
        needs_ui = bool(msg.payload.get("needs_ui"))
        self.value = msg.payload["value"]
        self.serialized_writes += 1
        # the writer's ACK re-installs its copy whatever its state was.
        self.departed.discard(msg.src)
        self.ctx.broadcast_except(sorted(self.departed | {msg.src}), UPD,
                                  PP_WRITE, msg.op_id,
                                  payload={"value": msg.payload["value"]},
                                  initiator=msg.token.operation_initiator)
        # the ACK carries the whole copy back when the writer had ejected
        # (cost S + 1 instead of 1).
        self.ctx.send(msg.src, ACK, PP_USER_INFO if needs_ui else PP_NONE,
                      msg.op_id,
                      payload={"value": self.value} if needs_ui else None,
                      initiator=msg.token.operation_initiator)


SPEC = ProtocolSpec(
    name="firefly",
    display_name="Firefly",
    client_states=(SHARED,),
    sequencer_states=(VALID,),
    invalidation_based=False,
    migrating_owner=False,
    client_factory=FireflyClient,
    sequencer_factory=FireflySequencer,
    notes=(
        "Reconstructed update protocol with a fixed sequencer: client "
        "writes cost N*(P+1)+1 (parameters in, N-1 update broadcasts, ACK); "
        "sequencer writes cost N*(P+1); reads are always local. Ejected "
        "copies leave the update fan-out (EJ departure notice) until they "
        "re-fetch or write."
    ),
)
