"""Small shared helpers with no dependencies on the rest of the package.

The one that matters is :func:`reject_unknown_keys`: every ``from_dict``
constructor in the configuration layer (:class:`~repro.sim.config.RunConfig`,
:class:`~repro.sim.faults.FaultPlan`,
:class:`~repro.sim.partition.PartitionPlan`,
:class:`~repro.sim.reliable.ReliabilityConfig`, ...) — through
:func:`field_kwargs` — and the scenario parser (:mod:`repro.scenarios`)
call it so a stale or typo'd key fails loudly with a did-you-mean
suggestion instead of being silently dropped — a half-applied
configuration is the worst possible failure mode for a reproducibility
tool.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = ["backoff_delay", "did_you_mean", "field_kwargs", "lazy_exports",
           "reject_unknown_keys"]

#: scalar field annotations (as strings, under postponed evaluation) and
#: the conversion :func:`field_kwargs` applies to a present value
_SCALARS: Dict[str, Callable[[Any], Any]] = {
    "int": int, "float": float, "bool": bool, "str": str,
}


def did_you_mean(name: str, candidates: Iterable[str]) -> str:
    """A `` (did you mean 'x'?)`` suffix, or ``""`` with no close match."""
    import difflib  # only an error message needs it

    matches = difflib.get_close_matches(name, list(candidates), n=1,
                                        cutoff=0.6)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def reject_unknown_keys(
    data: Mapping, allowed: Iterable[str], context: str
) -> None:
    """Raise ``ValueError`` when ``data`` carries keys not in ``allowed``.

    Args:
        data: the mapping being deserialized.
        allowed: every key the consumer understands.
        context: what is being parsed, for the error message
            (e.g. ``"RunConfig"`` or ``"scenario 'table7'"``).
    """
    allowed = list(allowed)
    unknown = [k for k in data if k not in allowed]
    if not unknown:
        return
    hints = "".join(
        f"\n  {key!r} is not a valid key{did_you_mean(str(key), allowed)}"
        for key in sorted(map(str, unknown))
    )
    raise ValueError(
        f"unknown key{'s' if len(unknown) > 1 else ''} in {context}: "
        f"{', '.join(sorted(map(repr, unknown)))}{hints}\n"
        f"  valid keys: {', '.join(allowed)}"
    )


def field_kwargs(cls: type, data: Mapping, context: str,
                 **decoders: Callable[[Any], Any]) -> Dict[str, Any]:
    """Constructor keywords for dataclass ``cls`` from a plain-JSON dict.

    Every key must name an init field of ``cls``
    (:func:`reject_unknown_keys`).  A present value goes through its entry
    in ``decoders``, else through its field's scalar type (``int``,
    ``float``, ``bool`` or ``str``); ``None`` passes through unchanged.
    Missing keys are left out, so they take the field default and each
    default is declared once, on its field.
    """
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    reject_unknown_keys(data, fields, context)
    kwargs = {}
    for key, value in data.items():
        decode = decoders.get(key) or _SCALARS.get(fields[key].type)
        kwargs[key] = (value if value is None or decode is None
                       else decode(value))
    return kwargs


def lazy_exports(package: str,
                 exports: Union[Mapping[str, Iterable[str]],
                                Iterable[Tuple[str, Iterable[str]]]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """Public names of ``package``, with its PEP 562 ``__getattr__`` and
    ``__dir__``, for a package whose names live in its submodules.

    ``exports`` maps each submodule (relative to ``package``) to the names
    it defines, as a mapping or as ``(submodule, names)`` pairs (which may
    name a submodule more than once, to keep a given order of names); a
    name equal to its submodule's is the submodule itself.  A name imports
    its submodule on first access and is then bound in the package, so
    later reads are plain attribute reads and importing one submodule
    does not load its siblings.
    """
    pairs = exports.items() if isinstance(exports, Mapping) else exports
    origin = {name: module for module, names in pairs for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__


def backoff_delay(base: float, factor: float, attempt: int,
                  cap: float = math.inf) -> float:
    """The delay before retry number ``attempt`` (0-based).

    Bounded exponential backoff, shared by every retry discipline: the
    reliable transport's frame retransmissions
    (:mod:`repro.sim.reliable`), the reconfiguration manager's
    state-transfer attempts (:mod:`repro.sim.reconfig`) and the quorum
    family's phase re-selection (:mod:`repro.protocols.sc_abd`) all
    retry with the same ``base * factor ** attempt`` shape and each
    historically inlined it with its own (sometimes missing) cap.
    With the default infinite cap the result is exactly the uncapped
    product (``min(x, inf)`` returns ``x``), so callers that never
    capped keep byte-identical delays.
    """
    return min(base * (factor ** attempt), cap)
