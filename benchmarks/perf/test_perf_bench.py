"""Self-test of the repo benchmark (outside tier-1; run it explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Every workload runs at ``--scale 0.02`` with one repeat, so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--scale", "0.02", "--repeats", "1"]


def run_bench(*args, cwd=ROOT, script=HERE / "bench.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def summary(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def plain_run():
    return run_bench("--seed", "1", *SMALL)


@pytest.fixture(scope="module")
def layer_runs(tmp_path_factory):
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("layers") / f"layers{i}.json"
        proc = run_bench("--seed", "1", *SMALL, "--layers",
                         "--out", str(out))
        runs.append((proc, json.loads(out.read_text())))
    return runs


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        bench.PER_LAYER)


def test_every_metric_printed_with_its_unit(plain_run, layer_runs):
    for proc, metrics in ((plain_run, SPEC["end_to_end"]),
                          (layer_runs[0][0], SPEC["per_layer"])):
        assert proc.returncode == 0, proc.stdout + proc.stderr
        printed = summary(proc)["metrics"]
        for name in workloads.WORKLOADS:
            for m in metrics:
                key = f"{name}/{m['name']}"
                assert printed[key]["unit"] == m["unit"], key
                assert f"{m['name']} " in proc.stdout


def test_single_workload_prints_contract_summary():
    proc = run_bench("--workload", "quorum", "--seed", "3", "--seconds",
                     "1", "--trace", "0", "--scale", "0.02")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = summary(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_shares_and_unattributed_sum_to_one(layer_runs):
    for w in layer_runs[0][1]["workloads"]:
        medians = {k: v["median"] for k, v in w["metrics"].items()}
        shares = [v for k, v in medians.items() if k.endswith("self_share")]
        total = sum(shares) + medians["unattributed_share"]
        assert total == pytest.approx(1.0, abs=0.01), w["workload"]
        assert medians["layer_run.overhead"] > 0
        if w["workload"] in ("star-read", "star-write", "quorum"):
            assert medians["unattributed_share"] <= 0.10


def test_counts_repeat_across_invocations(layer_runs):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    (_, first), (_, second) = layer_runs
    for a, b in zip(first["workloads"], second["workloads"]):
        assert a["correct"] and b["correct"], (a["problems"], b["problems"])
        for name in counts:
            assert a["metrics"][name]["median"] == (
                b["metrics"][name]["median"]), (a["workload"], name)


def test_held_out_seed_passes_the_gate():
    proc = run_bench("--seed", "2", *SMALL)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = summary(proc)
    assert result["correct"] and result["failed"] == 0


def test_default_seed_matches_expected_outputs():
    recorded = json.loads((HERE / "expected.json").read_text())
    assert set(workloads.WORKLOADS) <= set(recorded)
    proc = run_bench("--workload", "quorum", "--seed", "1", "--repeats", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert summary(proc)["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "star-read", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "perf" / "bench.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_run_restores_every_patched_attribute():
    import repro.api  # noqa: F401
    import repro.chaos  # noqa: F401

    run = layers.LayerRun(layers.Scopes())
    with run:
        recorded = list(run.patched)
        assert len(recorded) > 40
        for owner, attr, original in recorded:
            assert owner.__dict__[attr] is not original
    assert run.patched == []
    seen = set()
    for owner, attr, original in recorded:
        if (id(owner), attr) not in seen:  # the first patch saw the original
            seen.add((id(owner), attr))
            assert owner.__dict__[attr] is original, (owner, attr)
