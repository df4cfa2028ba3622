"""Repo hygiene: no compiled/binary artifacts may be checked in, the
docs name only code and files that exist, and protocol handlers read
message types through module-level aliases."""

import ast
import dataclasses
import importlib
import inspect
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCS += sorted((REPO / "docs").glob("*.md"))
#: dotted ``repro.…`` names (modules, classes, functions, attributes)
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
#: repo paths under the directories the docs point readers at
REPO_PATH = re.compile(
    r"(?<![\w./-])(?:benchmarks|examples|scenarios|tests)/[\w./*-]*"
)
#: benchmark outputs: generated on demand, never committed
GENERATED = "benchmarks/results/"
API_DOC = REPO / "docs" / "api.md"
#: an api.md section heading naming its module (``## `repro.core` ...``)
API_SECTION = re.compile(r"^## `(repro(?:\.\w+)*)`", re.MULTILINE)
#: a backticked span, possibly wrapped across lines
BACKTICKED = re.compile(r"`([^`]+)`")
#: a lowercase dotted name at the start of a span (``chains.markov_acc``)
RELATIVE = re.compile(r"[a-z_]\w*(?:\.\w+)+")
#: metric and scope names in api.md that look dotted but name no code
NOT_CODE = {"engine.dispatch", "sweep.cell_wall_clock_s", "span.cost"}
PROTOCOLS = SRC / "protocols"
#: enums whose members handlers read through ``repro.machines.message``'s
#: module-level aliases, never through the class
ALIASED_ENUMS = {"MsgType", "ParamPresence"}


def tracked_files():
    try:
        out = subprocess.run(
            ["git", "ls-files", "-z"], cwd=REPO, check=True,
            capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return [f for f in out.split("\0") if f]


def test_no_bytecode_or_cache_dirs_tracked():
    offenders = [
        f for f in tracked_files()
        if f.endswith((".pyc", ".pyo", ".pyd")) or "__pycache__" in f
    ]
    assert offenders == []


def test_no_binary_files_tracked():
    """Every tracked file is text (the repo ships no binary artifacts)."""
    offenders = []
    for name in tracked_files():
        path = REPO / name
        if not path.is_file():  # deleted in the working tree
            continue
        if b"\0" in path.read_bytes()[:8192]:
            offenders.append(name)
    assert offenders == []


def test_gitignore_covers_bytecode():
    patterns = (REPO / ".gitignore").read_text().splitlines()
    assert "__pycache__/" in patterns
    assert "*.py[cod]" in patterns


def _doc_references(pattern):
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            ref = match.group(0).rstrip(".")
            # a placeholder (``scenarios/baselines/NAME.jsonl``) or a
            # family prefix (``closed_forms.acc_sc_abd_*``)
            if ref.endswith("_") or re.search(r"\bNAME\b", ref):
                continue
            yield doc.name, ref


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_doc_dotted_names_resolve():
    offenders = sorted({(doc, name) for doc, name in _doc_references(DOTTED)
                        if not _resolves(name)})
    assert offenders == []


def test_doc_paths_exist():
    offenders = sorted({
        (doc, path) for doc, path in _doc_references(REPO_PATH)
        if not path.startswith(GENERATED) and not any(REPO.glob(path))
    })
    assert offenders == []


def _api_relative_names():
    """``(module, name)`` for each dotted name api.md writes relative to
    the module in its section heading."""
    text = API_DOC.read_text()
    sections = [(m.start(), m.group(1)) for m in API_SECTION.finditer(text)]
    for span in BACKTICKED.finditer(text):
        module = None
        for start, name in sections:
            if start > span.start():
                break
            module = name
        match = RELATIVE.match(span.group(1))
        if module is None or match is None:
            continue
        name = match.group(0)
        if name.startswith("repro.") or name in NOT_CODE:
            continue
        yield module, name


def test_api_doc_relative_names_resolve():
    names = sorted(set(_api_relative_names()))
    assert len(names) > 40  # the scan still finds the reference entries
    offenders = [(module, name) for module, name in names
                 if not _resolves(f"{module}.{name}")]
    assert offenders == []


def _enum_reads_in_functions(tree):
    """``(line, "Enum.MEMBER")`` for every aliased-enum attribute read
    inside a function body; module-level tables and aliases are fine."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ALIASED_ENUMS):
                yield node.lineno, f"{node.value.id}.{node.attr}"


def test_protocol_handlers_read_enum_members_through_aliases():
    """A class attribute read on an Enum costs ~10x a module global, and
    the handlers branch on every delivered message's type."""
    offenders = sorted({
        (path.name, line, name)
        for path in PROTOCOLS.glob("*.py")
        for line, name in _enum_reads_in_functions(
            ast.parse(path.read_text(), filename=str(path)))
    })
    assert offenders == []


def test_enum_read_check_sees_function_bodies_only():
    tree = ast.parse(
        "X = MsgType.R_PER\n"
        "T = {1: ParamPresence.NONE}\n"
        "def f(msg):\n"
        "    return msg.token.type is MsgType.W_INV\n"
        "class C:\n"
        "    def g(self):\n"
        "        return lambda: ParamPresence.WRITE\n")
    assert set(_enum_reads_in_functions(tree)) == {
        (4, "MsgType.W_INV"), (7, "ParamPresence.WRITE")}


def test_each_run_knob_is_declared_once():
    """``RunConfig`` is the only declaration of a run knob: the system
    constructor takes the config, never a copy of one of its fields."""
    from repro.sim import DSMSystem, RunConfig

    params = set(inspect.signature(DSMSystem.__init__).parameters)
    knobs = {f.name for f in dataclasses.fields(RunConfig)}
    assert params & knobs == set()
    assert not hasattr(DSMSystem, "from_config")


def _dsm_system_calls(tree):
    """The ``DSMSystem(...)`` call nodes of ``tree`` (by name or as an
    attribute); a docstring example is a string, so it never counts."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id",
                        getattr(node.func, "attr", None)) == "DSMSystem"]


def test_one_synthetic_run_path():
    """Only the run path (``exp.runner.simulate_cell``) and the explorer's
    hand-driven system build a :class:`DSMSystem` in ``src/``; every other
    simulation is a :class:`~repro.exp.spec.SweepCell` through it."""
    sites = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for _ in _dsm_system_calls(ast.parse(path.read_text(),
                                             filename=str(path)))
    )
    assert sites == ["core/chains.py", "exp/runner.py"]


def test_dsm_system_call_scan_skips_docstrings():
    tree = ast.parse(
        '"""Example: DSMSystem("berkeley", N=8)."""\n'
        "a = DSMSystem('berkeley', N=3)\n"
        "b = sim.DSMSystem('berkeley', N=3)\n"
        "c = DSMSystem\n")
    assert [node.lineno for node in _dsm_system_calls(tree)] == [2, 3]


def test_protocol_hit_and_owner_states_are_declared_states():
    """Each protocol's read-hit and owner states are states it declares."""
    from repro.protocols import all_protocol_names, get_protocol

    for name in all_protocol_names():
        spec = get_protocol(name)
        states = set(spec.client_states) | set(spec.sequencer_states)
        assert spec.hit_states <= states, name
        assert spec.owner_states <= states, name
