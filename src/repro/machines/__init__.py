"""Message vocabulary of the coherence protocols (paper Section 3).

Exposes the message-token five-tuple, the message types and parameter
presences, and the per-message communication cost of Section 4.1.  The
protocols' Mealy machines are the running classes of
:mod:`repro.protocols`; the tests read their transition tables off the
simulator and check them against the paper's Tables 1-3.
"""

from .message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
    token_cost,
)

__all__ = [
    "Message",
    "MessageToken",
    "MsgType",
    "ParamPresence",
    "QueueTag",
    "token_cost",
]
