"""The ``repro scenarios`` subcommand: list, show, run, compare."""

import json

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def catalog(tmp_path):
    doc = {
        "name": "tiny",
        "title": "Tiny analytic grid",
        "tags": ["smoke"],
        "protocols": ["write_once", "berkeley"],
        "kind": "analytic",
        "workload": {"N": 3, "a": 2},
        "sweep": {"mode": "cartesian", "p_values": [0.0, 0.2],
                  "disturb_values": [0.0, 0.1]},
    }
    (tmp_path / "tiny.json").write_text(json.dumps(doc))
    (tmp_path / "kid.json").write_text(json.dumps(
        {"name": "kid", "extends": "tiny",
         "sweep": {"mode": "cartesian", "p_values": [0.4]}}
    ))
    return tmp_path


class TestList:
    def test_lists_names_cells_and_tags(self, capsys, catalog):
        code, out, _ = run(capsys, "scenarios", "list",
                           "--catalog", str(catalog))
        assert code == 0
        assert "tiny" in out and "kid" in out and "smoke" in out
        assert "8 cells" in out  # 2 protocols x 4 feasible points

    def test_tag_filter(self, capsys, catalog):
        code, out, _ = run(capsys, "scenarios", "list",
                           "--catalog", str(catalog), "--tag", "smoke")
        assert code == 0 and "tiny" in out and "kid" not in out

    def test_committed_catalog_is_the_default(self, capsys):
        code, out, _ = run(capsys, "scenarios", "list")
        assert code == 0
        assert "table7" in out and "smoke-table7" in out


class TestShow:
    def test_human_summary(self, capsys, catalog):
        code, out, _ = run(capsys, "scenarios", "show", "tiny",
                           "--catalog", str(catalog))
        assert code == 0
        assert "write_once, berkeley" in out and "8 cells" in out

    def test_json_shows_the_resolved_document(self, capsys, catalog):
        code, out, _ = run(capsys, "scenarios", "show", "kid",
                           "--catalog", str(catalog), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "kid"
        assert doc["protocols"] == ["write_once", "berkeley"]  # inherited
        assert doc["sweep"]["p_values"] == [0.4]
        assert "extends" not in doc

    def test_unknown_name_exits_2_with_suggestion(self, capsys, catalog):
        code, _out, err = run(capsys, "scenarios", "show", "tniy",
                              "--catalog", str(catalog))
        assert code == 2
        assert "did you mean 'tiny'" in err


class TestRun:
    def test_runs_and_writes_jsonl(self, capsys, catalog, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, out, _ = run(capsys, "scenarios", "run", "tiny",
                           "--catalog", str(catalog), "--quiet",
                           "--no-cache", "--out", str(out_path))
        assert code == 0
        assert "cells     = 8" in out
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)

    def test_cells_truncation_and_cache(self, capsys, catalog, tmp_path):
        cache = tmp_path / "cache"
        code, out, _ = run(capsys, "scenarios", "run", "tiny",
                           "--catalog", str(catalog), "--quiet",
                           "--cells", "3", "--cache-dir", str(cache),
                           "--out", str(tmp_path / "a.jsonl"))
        assert code == 0 and "cells     = 3" in out
        code, out, _ = run(capsys, "scenarios", "run", "tiny",
                           "--catalog", str(catalog), "--quiet",
                           "--cells", "3", "--cache-dir", str(cache),
                           "--out", str(tmp_path / "b.jsonl"))
        assert code == 0
        assert "3 cached" in out
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


class TestCompare:
    def test_identical_then_differs(self, capsys, catalog, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        code, _out, _ = run(capsys, "scenarios", "run", "tiny",
                            "--catalog", str(catalog), "--quiet",
                            "--no-cache", "--out", str(baseline))
        assert code == 0
        code, out, _ = run(capsys, "scenarios", "compare", "tiny",
                           "--catalog", str(catalog), "--quiet",
                           "--no-cache", "--baseline", str(baseline))
        assert code == 0 and "identical" in out
        # truncate the baseline -> the run now has unmatched rows
        lines = baseline.read_text().splitlines()
        baseline.write_text("\n".join(lines[:4]) + "\n")
        code, out, err = run(capsys, "scenarios", "compare", "tiny",
                             "--catalog", str(catalog), "--quiet",
                             "--no-cache", "--baseline", str(baseline))
        assert code == 1 and "DIFFERS" in out
        assert "not in baseline" in err

    def test_default_baseline_location(self, capsys, catalog, tmp_path):
        (catalog / "baselines").mkdir()
        code, _out, _ = run(capsys, "scenarios", "run", "kid",
                            "--catalog", str(catalog), "--quiet",
                            "--no-cache",
                            "--out", str(catalog / "baselines" /
                                         "kid.jsonl"))
        assert code == 0
        code, out, _ = run(capsys, "scenarios", "compare", "kid",
                           "--catalog", str(catalog), "--quiet",
                           "--no-cache")
        assert code == 0 and "identical" in out

    def test_missing_baseline_exits_2(self, capsys, catalog):
        code, _out, err = run(capsys, "scenarios", "compare", "tiny",
                              "--catalog", str(catalog), "--quiet",
                              "--no-cache")
        assert code == 2
        assert "baseline" in err


@pytest.mark.parametrize("argv, error", [
    (["list"], "no scenario catalog found (set REPRO_SCENARIOS, create "
               "./scenarios, or pass --catalog)"),
    (["report"], "no scenario catalog found (set REPRO_SCENARIOS, create "
                 "./scenarios, pass --catalog, or name rows files)"),
    (["compare", "tiny.json", "--quiet", "--no-cache"],
     "no catalog to locate the baseline in; pass --baseline"),
], ids=["list", "report", "compare"])
def test_no_catalog_exits_2(capsys, catalog, monkeypatch, argv, error):
    """Without ``--catalog`` and with no default catalog, each command that
    needs one names what to pass and exits 2."""
    monkeypatch.setattr("repro.scenarios.default_catalog_dir", lambda: None)
    monkeypatch.chdir(catalog)
    code, _out, err = run(capsys, "scenarios", *argv)
    assert code == 2
    assert err == f"error: {error}\n"
