"""The public import surface: ``__all__`` is complete and truthful."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SURFACES = [
    "repro",
    "repro.core",
    "repro.machines",
    "repro.sim",
    "repro.exp",
    "repro.obs",
    "repro.validation",
    "repro.workloads",
    "repro.protocols",
]


@pytest.mark.parametrize("module_name", SURFACES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), module_name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ lists missing names: {missing}"


@pytest.mark.parametrize("module_name", SURFACES)
def test_all_has_no_duplicates(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))


def test_star_import_matches_all():
    namespace = {}
    exec("from repro import *", namespace)
    exported = {n for n in namespace if not n.startswith("__")}
    assert exported == set(repro.__all__) - {"__version__"}


def test_top_level_covers_the_quickstart():
    # every name the package docstring's quickstart uses
    for name in ("Deviation", "DSMSystem", "RunConfig", "WorkloadParams",
                 "analytical_acc", "compare_cell", "comparison_table",
                 "ResultCache", "SweepCell", "SweepRunner", "SweepSpec",
                 "run_sweep"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_exp_surface():
    import repro.exp as exp
    for name in ("CACHE_SCHEMA", "CacheStats", "ResultCache", "SweepResult",
                 "SweepRunner", "row_line", "run_cell", "run_sweep",
                 "CELL_KINDS", "SweepCell", "SweepSpec", "derive_cell_seed"):
        assert name in exp.__all__, name


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_simulator_import_stays_lean():
    """``import repro.sim`` loads neither the chain explorer nor the
    sweep engine or the scenario catalog: the package exports resolve
    lazily.  Run in a fresh interpreter, since this one has them all."""
    probe = ("import sys, repro.sim; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('repro'))))")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    loaded = set(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=env,
    ).stdout.split())
    assert "repro.sim" in loaded
    for heavy in ("repro.core.chains", "repro.exp", "repro.scenarios",
                  "repro.api"):
        assert heavy not in loaded, heavy
