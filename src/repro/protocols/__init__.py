"""The eight data-replication coherence protocols (paper Section 5, appendix).

Each protocol module provides client/sequencer protocol-process classes and
a :class:`~repro.protocols.base.ProtocolSpec`; :data:`PROTOCOLS` maps
registry names to specs.
"""

from .base import (
    EJECT,
    READ,
    WRITE,
    HoldingMixin,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)
from .registry import (
    EXTENSION_PROTOCOLS,
    PROTOCOLS,
    UnknownProtocolError,
    all_protocol_names,
    get_protocol,
    protocol_names,
)

__all__ = [
    "EJECT",
    "READ",
    "WRITE",
    "HoldingMixin",
    "Operation",
    "ProcessContext",
    "ProtocolProcess",
    "ProtocolSpec",
    "EXTENSION_PROTOCOLS",
    "PROTOCOLS",
    "UnknownProtocolError",
    "all_protocol_names",
    "get_protocol",
    "protocol_names",
]
