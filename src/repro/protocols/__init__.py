"""The eight data-replication coherence protocols (paper Section 5, appendix).

Each protocol module provides client/sequencer protocol-process classes and
a :class:`~repro.protocols.base.ProtocolSpec`; :data:`PROTOCOLS` maps
registry names to specs.

Names resolve on first access, and :func:`get_protocol` imports only the
module of the protocol it returns; reading :data:`PROTOCOLS` or
:data:`EXTENSION_PROTOCOLS` imports every protocol.
"""

from ..util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("EJECT", "READ", "WRITE", "HoldingMixin", "Operation",
             "ProcessContext", "ProtocolProcess", "ProtocolSpec"),
    "registry": ("EXTENSION_PROTOCOLS", "PROTOCOLS", "UnknownProtocolError",
                 "all_protocol_names", "get_protocol", "protocol_names"),
})
