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
    "repro.chaos",
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


def _fresh(probe: str) -> str:
    """Stdout of ``probe`` run in a fresh interpreter on this tree."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=env,
    ).stdout


def test_simulator_import_stays_lean():
    """``import repro.sim`` loads neither the chain explorer nor the
    sweep engine or the scenario catalog: the package exports resolve
    lazily.  Run in a fresh interpreter, since this one has them all."""
    probe = ("import sys, repro.sim; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('repro'))))")
    loaded = set(_fresh(probe).split())
    assert "repro.sim" in loaded
    for heavy in ("repro.core.chains", "repro.exp", "repro.scenarios",
                  "repro.api"):
        assert heavy not in loaded, heavy


#: builds and runs a plain system; prints the ``repro`` modules loaded
#: before the run, then the modules (of any package) the run added
PLAIN_RUN_PROBE = """
import sys
from repro.core.parameters import Deviation, WorkloadParams
from repro.sim import DSMSystem, RunConfig
from repro.workloads.synthetic import SyntheticWorkload
params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.1)
system = DSMSystem("write_through", N=3, M=2)
workload = SyntheticWorkload(params, Deviation.READ, M=2)
config = RunConfig(ops=300, seed=1)
before = set(sys.modules)
system.run_workload(workload, config)
print(' '.join(sorted(m for m in before if m.split('.')[0] == 'repro')))
print(' '.join(sorted(set(sys.modules) - before)) or '-')
"""


@pytest.fixture(scope="module")
def plain_run():
    """The two output lines of :data:`PLAIN_RUN_PROBE`."""
    return _fresh(PLAIN_RUN_PROBE).splitlines()


def test_plain_run_imports_only_what_it_runs(plain_run):
    """A run on the paper's fabric loads no optional subsystem, no
    observability module and no protocol other than the one it runs."""
    loaded = set(plain_run[0].split())
    assert "repro.protocols.write_through" in loaded
    unused = {f"repro.sim.{name}" for name in (
        "reliable", "faults", "partition", "reconfig", "recovery",
        "monitor", "cache", "hedge")}
    assert not loaded & unused, sorted(loaded & unused)
    assert not {m for m in loaded if m.startswith("repro.obs")}
    protocols = {m for m in loaded if m.startswith("repro.protocols.")}
    assert protocols == {"repro.protocols.base", "repro.protocols.registry",
                         "repro.protocols.write_through"}


def test_plain_run_imports_nothing_while_it_runs(plain_run):
    """Every import happens while the system is built, none while the
    workload runs (the timed phase of a benchmark)."""
    assert plain_run[1] == "-"


def test_registry_tables_keep_their_keys_and_order():
    from repro.protocols import EXTENSION_PROTOCOLS, PROTOCOLS

    assert list(PROTOCOLS) == [
        "write_through", "write_through_v", "write_once", "synapse",
        "illinois", "berkeley", "dragon", "firefly"]
    assert list(EXTENSION_PROTOCOLS) == ["write_through_dir", "sc_abd"]
    assert all(spec.name == name for table in (PROTOCOLS, EXTENSION_PROTOCOLS)
               for name, spec in table.items())
    assert repro.protocol_names() == list(PROTOCOLS)
    assert repro.all_protocol_names() == [*PROTOCOLS, *EXTENSION_PROTOCOLS]


def test_lookup_by_display_name_still_resolves():
    from repro.protocols import get_protocol

    assert get_protocol("Write-Once").name == "write_once"
    assert get_protocol("SC-ABD (majority quorum)").name == "sc_abd"
    assert get_protocol(" BERKELEY ").name == "berkeley"


def test_lookup_by_registry_name_imports_one_protocol():
    probe = ("import sys; from repro.protocols import get_protocol; "
             "get_protocol('berkeley'); print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('repro.protocols.'))))")
    assert _fresh(probe).split() == [
        "repro.protocols.base", "repro.protocols.berkeley",
        "repro.protocols.registry"]


#: runs ``repro simulate`` on the paper's fabric through the CLI; prints
#: the ``repro`` modules loaded when it returns
SIMULATE_CLI_PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["simulate", "write_through", "--N", "3", "--p", "0.2",
          "--ops", "300"])
print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))
"""


def test_cli_simulate_imports_only_what_it_runs():
    """``repro simulate`` loads the one protocol it runs, and none of the
    commands' modules it does not run (catalog, validation, placement,
    ranking)."""
    loaded = set(_fresh(SIMULATE_CLI_PROBE).split())
    protocols = {f"repro.protocols.{name}"
                 for name in repro.all_protocol_names()}
    assert loaded & protocols == {"repro.protocols.write_through"}
    unused = [m for m in loaded if m.startswith(("repro.scenarios",
                                                 "repro.validation"))
              or m in ("repro.core.placement", "repro.core.comparison")]
    assert not unused, sorted(unused)


def test_cli_simulate_loads_no_chaos_runner_or_trace_export():
    """``repro simulate`` reads ``ChaosOptions`` and ``TraceConfig`` to
    build its flags, which loads their submodules only: the packages
    resolve their names lazily, so the campaign runner, the shrinker and
    the trace exporter stay unloaded."""
    loaded = set(_fresh(SIMULATE_CLI_PROBE).split())
    assert "repro.chaos.generate" in loaded and "repro.obs.trace" in loaded
    unused = {"repro.chaos.runner", "repro.chaos.shrink", "repro.obs.export"}
    assert not loaded & unused, sorted(loaded & unused)


@pytest.mark.parametrize("first", [
    "from repro.chaos.shrink import ShrinkResult",
    "from repro.chaos import run_chaos",
    "from repro.chaos import shrink",
])
def test_chaos_shrink_is_the_function_whatever_loads_first(first):
    """``repro.chaos.shrink`` names a submodule and the function it
    defines; the package export stays the function however the
    submodule is first loaded."""
    probe = (f"{first}\nimport repro.chaos\nfrom repro.chaos import shrink\n"
             "print(type(shrink).__name__, type(repro.chaos.shrink).__name__)")
    assert _fresh(probe).split() == ["function", "function"]


#: a small serial chaos campaign
SERIAL_CHAOS_PROBE = """
import sys
from repro.chaos import ChaosOptions, run_chaos
run_chaos(ChaosOptions(seeds=1, protocols=("write_through",), workers=1))
"""


@pytest.mark.parametrize("probe", [SIMULATE_CLI_PROBE, SERIAL_CHAOS_PROBE],
                         ids=["simulate", "serial-chaos"])
def test_a_serial_run_loads_no_worker_pool(probe):
    """The sweep engine imports its process pool only for a pool: a
    ``repro simulate`` run and a ``workers=1`` campaign load neither
    ``multiprocessing`` nor ``concurrent.futures.process``."""
    out = _fresh(probe + "print(' '.join(sorted(sys.modules)))\n")
    loaded = set(out.splitlines()[-1].split())
    assert "repro.exp.runner" in loaded
    pool = {"multiprocessing", "concurrent.futures.process"}
    assert not loaded & pool, sorted(loaded & pool)
