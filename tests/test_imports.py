"""The public import surface: ``__all__`` is complete and truthful."""

import importlib

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
