"""The committed simulator speed trajectory, ``BENCH_sim.json``.

One row per (PR, workload): the commit and the base commit it was
measured against, the reference-host median and quartiles of each side,
and the number of alternated pairs.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO / "BENCH_sim.json"
ROW_KEYS = {"pr", "workload", "commit", "base_commit", "base", "change",
            "pairs", "wins", "seeds"}
STAT_KEYS = {"median", "q1", "q3"}
COMMIT = re.compile(r"[0-9a-f]{40}")
WORKLOADS = {"star-read", "star-write", "quorum", "chaos", "catalog"}


def _rows():
    return json.loads(TRAJECTORY.read_text())["rows"]


def test_trajectory_is_outside_the_frozen_benchmark_directory():
    assert TRAJECTORY.parent == REPO
    assert not list((REPO / "benchmarks" / "perf").glob("BENCH_*.json"))


def test_rows_carry_the_trajectory_keys():
    rows = _rows()
    assert rows
    for row in rows:
        assert set(row) == ROW_KEYS, row
        assert row["workload"] in WORKLOADS, row
        assert COMMIT.fullmatch(row["base_commit"]), row
        assert row["commit"] is None or COMMIT.fullmatch(row["commit"]), row
        assert row["commit"] != row["base_commit"], row
        assert isinstance(row["pairs"], int) and row["pairs"] >= 1, row
        assert row["wins"] is None or 0 <= row["wins"] <= row["pairs"], row


@pytest.mark.parametrize("side", ["base", "change"])
def test_quartiles_bracket_the_median(side):
    for row in _rows():
        stats = row[side]
        assert set(stats) == STAT_KEYS, row
        assert stats["median"] > 0, row
        q1, q3 = stats["q1"], stats["q3"]
        assert (q1 is None) == (q3 is None), row
        if q1 is not None:
            assert q1 <= stats["median"] <= q3, row


def test_rows_are_unique_per_comparison():
    keys = [(r["pr"], r["workload"], r["commit"], r["base_commit"])
            for r in _rows()]
    assert len(keys) == len(set(keys))
