"""Message tokens of the formal coherence-protocol model (paper Section 3).

A message consists of a *message token* and optional additional parameters.
A token is the five-tuple::

    (type, operation_initiator, object_name, queue, parameter_presence)

* ``type`` — the message type.  The Write-Through protocol uses six types
  (``R-REQ``, ``W-REQ``, ``R-PER``, ``W-PER``, ``R-GNT``, ``W-INV``); the
  other protocols reconstructed in :mod:`repro.protocols` add ownership,
  recall, write-back, update and acknowledgement types.
* ``operation_initiator`` — index of the node that started the operation
  (``1 .. N+1``).
* ``object_name`` — index of the shared object (``1 .. M``).
* ``queue`` — the queue the message is (to be) enqueued on: ``'l'`` for a
  client's local queue, ``'d'`` for a distributed queue.
* ``parameter_presence`` — what, if anything, rides along with the token:
  ``'0'`` nothing, ``'r'`` read-operation parameters, ``'w'``
  write-operation parameters, ``'ui'`` a complete user-information part of a
  copy.

The communication cost of sending a token inter-node is determined solely by
``parameter_presence`` (Section 4.1): ``1`` for ``'0'``/``'r'``, ``P + 1``
for ``'w'`` and ``S + 1`` for ``'ui'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

__all__ = [
    "MsgType",
    "QueueTag",
    "ParamPresence",
    "MessageToken",
    "Message",
    "token_cost",
    # module-level aliases of every MsgType member ...
    "R_REQ", "W_REQ", "R_PER", "W_PER", "R_GNT", "W_INV", "W_GNT", "O_PER",
    "O_GNT", "RCL", "WB", "D_NOT", "D_GNT", "D_NACK", "DGR", "UPD", "ACK",
    "RETRY", "EJ", "Q_RD", "Q_RR", "Q_TS", "Q_TR", "Q_UPD", "Q_WB", "Q_ACK",
    # ... and of every ParamPresence member
    "PP_NONE", "PP_READ", "PP_WRITE", "PP_USER_INFO",
]


class MsgType(Enum):
    """Message types across all eight reconstructed protocols.

    The first six are exactly the Write-Through types of Section 3; the rest
    are introduced by the protocol reconstructions documented in DESIGN.md.
    """

    # --- Write-Through core types (paper Section 3) ---
    R_REQ = "R-REQ"  #: read request from an application process
    W_REQ = "W-REQ"  #: write request from an application process
    R_PER = "R-PER"  #: read permission-asking message (client -> sequencer)
    W_PER = "W-PER"  #: write permission-asking message (client -> sequencer)
    R_GNT = "R-GNT"  #: read grant carrying user information (sequencer -> client)
    W_INV = "W-INV"  #: invalidation (sequencer/owner -> clients)

    # --- additional types used by the reconstructed protocols ---
    W_GNT = "W-GNT"  #: write grant / serialization point (two-phase writes)
    O_PER = "O-PER"  #: ownership permission-asking (Synapse/Illinois/Berkeley)
    O_GNT = "O-GNT"  #: ownership grant, possibly with user information
    RCL = "RCL"      #: recall/write-back request to a dirty owner
    WB = "WB"        #: write-back carrying user information (owner -> sequencer)
    D_NOT = "D-NOT"  #: dirty-upgrade request (Write-Once RESERVED -> DIRTY)
    D_GNT = "D-GNT"  #: dirty-upgrade grant (Write-Once)
    D_NACK = "D-NACK"  #: dirty-upgrade refusal (reserved status was lost)
    DGR = "DGR"      #: downgrade token (Write-Once RESERVED -> VALID)
    UPD = "UPD"      #: update carrying write parameters (Dragon/Firefly)
    ACK = "ACK"      #: completion acknowledgement token (Firefly)
    RETRY = "RETRY"  #: retry token (Synapse read miss on a dirty copy)

    # --- Section 6 extension: the eject operation ---
    EJ = "EJ"        #: eject notice (a client dropped its valid copy)

    # --- SC-ABD quorum family (no sequencer; repro.protocols.sc_abd) ---
    Q_RD = "Q-RD"    #: quorum read query (bare token)
    Q_RR = "Q-RR"    #: quorum read reply carrying timestamp + user info
    Q_TS = "Q-TS"    #: quorum timestamp query (write phase 1, bare token)
    Q_TR = "Q-TR"    #: quorum timestamp reply (bare token)
    Q_UPD = "Q-UPD"  #: quorum update carrying write parameters (phase 2)
    Q_WB = "Q-WB"    #: read-repair write-back carrying write parameters
    Q_ACK = "Q-ACK"  #: quorum update/write-back acknowledgement token

    # members are singletons, so identity hashing is exact; it runs in C,
    # where Enum's own ``hash(self._name_)`` is a Python-level call made
    # on every set or dict lookup keyed by a message type
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class QueueTag(Enum):
    """Which queue a message travels to: local (``'l'``) or distributed (``'d'``)."""

    LOCAL = "l"
    DISTRIBUTED = "d"


class ParamPresence(Enum):
    """The ``parameter_presence`` field of a token (paper Section 3)."""

    NONE = "0"       #: no additional parameters
    READ = "r"       #: read-operation parameters
    WRITE = "w"      #: write-operation parameters
    USER_INFO = "ui"  #: complete user-information part of a copy

    __hash__ = object.__hash__  # identity hashing, as for MsgType


# Module-level aliases of every member.  Protocol handlers branch on the
# message type of every delivery; a module global reads about ten times
# faster than an attribute read through an Enum class, so every handler
# uses these.  The presence aliases carry a ``PP_`` prefix: plain
# ``READ``/``WRITE`` are the operation kinds of ``repro.protocols.base``.
(R_REQ, W_REQ, R_PER, W_PER, R_GNT, W_INV, W_GNT, O_PER, O_GNT, RCL, WB,
 D_NOT, D_GNT, D_NACK, DGR, UPD, ACK, RETRY, EJ,
 Q_RD, Q_RR, Q_TS, Q_TR, Q_UPD, Q_WB, Q_ACK) = MsgType
PP_NONE, PP_READ, PP_WRITE, PP_USER_INFO = ParamPresence


@dataclass(frozen=True, slots=True)
class MessageToken:
    """The five-tuple message token of Section 3."""

    type: MsgType
    operation_initiator: int
    object_name: int
    queue: QueueTag
    parameter_presence: ParamPresence

    def describe(self) -> str:
        """Paper-style rendering, e.g. ``(R-GNT, k, j, d, ui)``."""
        return (
            f"({self.type.value}, {self.operation_initiator}, "
            f"{self.object_name}, {self.queue.value}, "
            f"{self.parameter_presence.value})"
        )


def token_cost(presence: ParamPresence, S: float, P: float) -> float:
    """Communication cost of sending a token inter-node (Section 4.1).

    ``1`` for a bare token, ``S + 1`` with user information, ``P + 1`` with
    write parameters.  Read parameters (``'r'``) only ever appear on local
    queues in the paper's protocols; if such a message were sent inter-node
    it would cost ``1`` (the parameters select data, they do not carry it).
    """
    if presence is PP_USER_INFO:
        return S + 1.0
    if presence is PP_WRITE:
        return P + 1.0
    return 1.0


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """A token plus its payload and addressing, as carried by a channel.

    ``payload`` carries simulated user information or write parameters (the
    version-vector values used by the simulator's coherence checker);
    ``op_id`` attributes every message to the application operation whose
    trace it belongs to, which is how the simulator accounts trace costs.

    Messages are never modified after construction, but the class is not
    ``frozen``: the simulator builds one per send, and a frozen
    dataclass's ``__init__`` (one ``object.__setattr__`` per field) costs
    over three times a plain one.  Equality and hashing still cover every
    field, as for a frozen dataclass.  Retransmissions and duplicates
    deliver the same object more than once, and one dict payload may be
    shared by several messages (every target of an sc_abd fan-out), so no
    handler may assign to a message or mutate its dict payload;
    ``tests/sim/test_identity.py`` runs every protocol with both made an
    error.
    """

    token: MessageToken
    src: int
    dst: int
    payload: Any = None
    op_id: Optional[int] = None
