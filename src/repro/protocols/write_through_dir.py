"""Directory Write-Through: copyset invalidation (an extension protocol).

The paper's protocols broadcast invalidations to all ``N - 1`` other
clients because their bus-based ancestors had a broadcast medium for free.
In a message-passing system the sequencer already *knows* exactly which
clients hold valid copies (it granted every one of them), so it can
multicast invalidations to the copyset only — the classic directory-based
optimization (cf. the LimitLESS directory work the paper cites as [5]).

This protocol is Write-Through with one change: a write costs
``P + 1 + |copyset \\ {writer}|`` instead of ``P + N``.  Under the paper's
workloads the copyset is usually tiny (the activity center plus whichever
disturbers re-read since the last write), so the saving grows with
``N - a``.  It is registered as an *extension* (not one of the paper's
eight) and is used by the broadcast-vs-directory ablation benchmark.
"""

from __future__ import annotations

from typing import Set

from ..machines.message import (
    Message, R_PER, W_PER, R_GNT, W_INV, EJ, PP_NONE, PP_USER_INFO,
)
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)
from .write_through import WriteThroughClient

__all__ = ["DirectoryWriteThroughClient", "DirectoryWriteThroughSequencer",
           "SPEC"]

INVALID = "INVALID"
VALID = "VALID"


class DirectoryWriteThroughClient(WriteThroughClient):
    """Write-Through client that announces ejects (copyset exactness)."""

    #: Warm rejoin is unsound here: the sequencer multicasts invalidations
    #: to its copyset only, and a warm-installed replica is not in the
    #: copyset, so it would never be invalidated.  Rejoin cold instead.
    WARM_REJOIN_STATE = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            if self.state == VALID:
                self.state = INVALID
                self.ctx.send(self.ctx.sequencer_id, EJ,
                              PP_NONE, op.op_id)
            self.ctx.complete(op)
            return
        super().on_request(op)


class DirectoryWriteThroughSequencer(ProtocolProcess):
    """Write-Through sequencer with exact copyset tracking.

    The directory is exact by construction: every validation (grant) and
    every invalidation is issued by this process, and FIFO channels make
    its view authoritative at serialization time.
    """

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        #: clients currently holding a valid copy
        self.copyset: Set[int] = set()
        self.serialized_writes = 0

    def on_request(self, op: Operation) -> None:
        if op.kind == READ:
            self.ctx.complete(op, self.value)
        else:
            self.value = op.params
            self.serialized_writes += 1
            for dst in sorted(self.copyset):
                self.ctx.send(dst, W_INV, PP_NONE,
                              op.op_id)
            self.copyset.clear()
            self.ctx.complete(op)

    def on_message(self, msg: Message) -> None:
        if msg.token.type is R_PER:
            self.copyset.add(msg.src)
            self.ctx.send(msg.src, R_GNT, PP_USER_INFO, msg.op_id,
                          payload={"value": self.value},
                          initiator=msg.token.operation_initiator)
        elif msg.token.type is W_PER:
            self.value = msg.payload["value"]
            self.serialized_writes += 1
            # multicast to the copyset only; the writer self-invalidated.
            for dst in sorted(self.copyset - {msg.src}):
                self.ctx.send(dst, W_INV, PP_NONE, msg.op_id,
                              initiator=msg.token.operation_initiator)
            self.copyset.clear()
        elif msg.token.type is EJ:
            self.copyset.discard(msg.src)
        else:  # pragma: no cover - specification error
            raise ValueError(
                f"write_through_dir sequencer: unexpected {msg.token.type}"
            )


SPEC = ProtocolSpec(
    name="write_through_dir",
    display_name="Write-Through (directory)",
    client_states=(INVALID, VALID),
    sequencer_states=(VALID,),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=DirectoryWriteThroughClient,
    sequencer_factory=DirectoryWriteThroughSequencer,
    notes=(
        "Extension: exact-copyset multicast invalidation; write cost "
        "P + 1 + |copyset \\ {writer}| instead of P + N."
    ),
)
