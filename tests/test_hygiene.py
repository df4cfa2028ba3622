"""Repo hygiene: no compiled/binary artifacts may be checked in, and the
docs name only code and files that exist."""

import importlib
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
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
