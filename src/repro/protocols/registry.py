"""Registry of the eight coherence protocols analyzed by the paper.

:func:`get_protocol` is the one lookup API: it resolves base and
extension protocols alike (registry name or display name, case- and
separator-insensitive) and raises :class:`UnknownProtocolError` — listing
every valid name, with a did-you-mean suggestion — for anything else.
Direct ``PROTOCOLS[...]`` / ``EXTENSION_PROTOCOLS[...]`` indexing is
deprecated in docs and examples: it only sees half the registry and fails
with a bare ``KeyError``.

Each registry name is also the name of the module that defines its
protocol, so a lookup by registry name imports that one module.  The
:data:`PROTOCOLS` and :data:`EXTENSION_PROTOCOLS` tables, and a lookup by
a display name the registry name does not match, import every protocol
(the tables are built on first access).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

from ..util import did_you_mean

if TYPE_CHECKING:  # pragma: no cover
    from .base import ProtocolSpec

__all__ = ["PROTOCOLS", "EXTENSION_PROTOCOLS", "UnknownProtocolError",
           "all_protocol_names", "get_protocol", "protocol_names"]

#: registry names of the paper's eight protocols, in the paper's order;
#: each names its module in this package
_PAPER = ("write_through", "write_through_v", "write_once", "synapse",
          "illinois", "berkeley", "dragon", "firefly")
#: registry names of the protocols added beyond the paper's eight
_EXTENSIONS = ("write_through_dir", "sc_abd")


def _spec(name: str) -> ProtocolSpec:
    """The spec of registry name ``name``, importing its module."""
    return importlib.import_module(f"{__package__}.{name}").SPEC


def __getattr__(name: str) -> Any:
    """Build :data:`PROTOCOLS` (the paper's eight protocols keyed by
    registry name, in the paper's order) or :data:`EXTENSION_PROTOCOLS`
    (the protocols added by this reproduction) on first access."""
    names = {"PROTOCOLS": _PAPER, "EXTENSION_PROTOCOLS": _EXTENSIONS}.get(
        name)
    if names is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    table: Dict[str, ProtocolSpec] = {key: _spec(key) for key in names}
    globals()[name] = table
    return table


class UnknownProtocolError(KeyError):
    """A protocol name that resolves to nothing in either registry table.

    Subclasses ``KeyError`` so historical ``except KeyError`` handlers
    (the CLI's, among others) keep working, but renders as a clean
    message (no ``KeyError`` quote-wrapping) that lists every valid name
    and suggests the closest one.
    """

    def __init__(self, name: str) -> None:
        known = all_protocol_names()
        super().__init__(
            f"unknown protocol {name!r}{did_you_mean(name, known)}; "
            f"known: {', '.join(known)}"
        )
        self.name = name

    def __str__(self) -> str:
        return self.args[0]


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a protocol by registry name or display name (case-insensitive).

    The single lookup API for base and extension protocols alike:
    searches the paper's eight protocols first, then the extensions, then
    display names (``"Write-Once"`` works as well as ``"write_once"``).

    Raises:
        UnknownProtocolError: (a ``KeyError``) listing every valid name,
            with a did-you-mean suggestion, when the name is unknown.
    """
    folded = name.strip().lower()
    key = folded.replace("-", "_").replace(" ", "_")
    if key in _PAPER or key in _EXTENSIONS:
        return _spec(key)
    for registered in all_protocol_names():
        spec = _spec(registered)
        if spec.display_name.lower() == folded:
            return spec
    raise UnknownProtocolError(name)


def protocol_names() -> List[str]:
    """Registry names in the paper's order."""
    return list(_PAPER)


def all_protocol_names() -> List[str]:
    """Every registry name — the paper's eight, then the extensions."""
    return list(_PAPER + _EXTENSIONS)
