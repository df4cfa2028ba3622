"""The benchmark's layer run still sees every entry point it wraps.

``benchmarks/perf/layers.py`` attributes host time to a layer by
wrapping methods on their classes (``_METHODS``).  A method that is
renamed away, or shadowed by an instance attribute bound at construction
(``self.step = ...``), drops out of the wrapped call path, and the layer
run silently stops attributing time to it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.sim import DSMSystem, ReliabilityConfig

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks/perf/layers.py"


def _wrapped_methods():
    spec = importlib.util.spec_from_file_location("_perf_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(getattr(importlib.import_module(module), cls_name), methods)
            for _layer, module, cls_name, methods in layers._METHODS]


def test_every_wrapped_method_exists_on_its_class():
    missing = [f"{cls.__name__}.{method}"
               for cls, methods in _wrapped_methods()
               for method in methods if method not in vars(cls)]
    assert missing == []


@pytest.mark.parametrize("protocol", ["berkeley", "sc_abd"])
@pytest.mark.parametrize("reliable", [False, True])
def test_no_wrapped_method_is_shadowed_on_an_instance(protocol, reliable):
    system = DSMSystem(protocol, N=3, M=2,
                       reliability=ReliabilityConfig() if reliable else None)
    objects = [system.scheduler, system.network]
    physical = getattr(system.network, "physical", None)
    if physical is not None:
        objects.append(physical)
    for node in system.nodes.values():
        objects.append(node)
        objects.extend(node.ports.values())
    processes = [port.process for node in system.nodes.values()
                 for port in node.ports.values()]
    shadowed = [
        f"{type(obj).__name__}.{method}"
        for cls, methods in _wrapped_methods()
        for obj in objects if isinstance(obj, cls)
        for method in methods if method in vars(obj)
    ]
    shadowed += [f"{type(proc).__name__}.{method}" for proc in processes
                 for method in ("on_request", "on_message")
                 if method in vars(proc)]
    assert shadowed == []
