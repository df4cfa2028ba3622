"""Smoke tests: the runnable examples actually run.

Each example is executed in-process (runpy) with output captured; the
slower studies are exercised by their benchmark counterparts instead.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"
README = Path(__file__).parent.parent / "README.md"


def run_example(name, capsys):
    argv = sys.argv
    sys.argv = [name]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "predicted acc" in out
    assert "berkeley" in out


def test_tuning_guide(capsys):
    out = run_example("tuning_guide.py", capsys)
    assert "simulator verification of" in out and "measured" in out


def test_protocol_comparison(capsys):
    out = run_example("protocol_comparison.py", capsys)
    assert "region map" in out
    assert "<== best" in out


def _readme_snippet(marker):
    text = README.read_text()
    blocks = [
        chunk.split("```", 1)[0]
        for chunk in text.split("```python")[1:]
    ]
    snippets = [b for b in blocks if marker in b]
    assert len(snippets) == 1, f"expected exactly one {marker} snippet"
    return snippets[0]


def test_readme_reconfig_snippet():
    """The online-reconfiguration quickstart in README.md, executed
    verbatim: the snippet is extracted from the fenced block that builds
    a ReconfigPlan, and its own assertions must hold."""
    snippet = _readme_snippet("ReconfigPlan(")
    exec(compile(snippet, str(README), "exec"), {})


def test_readme_cache_snippet():
    """The bounded replica-cache quickstart in README.md, executed
    verbatim: a capacity-4 LRU cache on the write-heavy Firefly workload
    must beat full replication, and the closed-form acc(C) model must
    track the measured acc within 10%."""
    snippet = _readme_snippet("CacheConfig(")
    exec(compile(snippet, str(README), "exec"), {})
