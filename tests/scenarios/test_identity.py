"""The acceptance contract: catalog scenarios ARE the legacy benchmarks.

A scenario that mirrors a hand-written benchmark must expand to the very
same cells (identical payloads, identical cache identities) and therefore
produce byte-identical JSONL rows and hit the same result-cache entries.
"""

import pytest

from repro.exp import ResultCache, SweepSpec, run_sweep
from repro.exp.runner import row_line
from repro.scenarios import compare_to_baseline, load_scenario, run_scenario

@pytest.fixture(scope="module")
def bench_table7():
    """The hand-written table 7 benchmark; only its identity tests skip
    when the ``benchmarks`` package is not importable."""
    return pytest.importorskip(
        "benchmarks.bench_table7",
        reason="benchmarks package requires the repo root on sys.path",
    )


@pytest.fixture()
def table7():
    return load_scenario("table7")


class TestTable7Identity:
    def test_every_cell_payload_identical_to_the_benchmark(
            self, table7, bench_table7):
        scenario_cells = [c.to_payload() for c in table7.to_spec()]
        bench_cells = [
            c.to_payload()
            for protocol in ("write_once", "write_through_v")
            for c in bench_table7.build_spec(protocol)
        ]
        assert scenario_cells == bench_cells

    def test_subset_rows_byte_identical(self, table7, bench_table7):
        spec = table7.to_spec()
        subset = SweepSpec.explicit(spec.cells[:2])
        bench_subset = SweepSpec.explicit(
            tuple(bench_table7.build_spec("write_once"))[:2]
        )
        ours = run_sweep(subset)
        theirs = run_sweep(bench_subset)
        assert [row_line(r) for r in ours.rows] == \
            [row_line(r) for r in theirs.rows]

    def test_scenario_hits_the_benchmarks_cache_entries(
            self, table7, bench_table7, tmp_path):
        cache = ResultCache(tmp_path)
        bench_subset = SweepSpec.explicit(
            tuple(bench_table7.build_spec("write_once"))[:2]
        )
        seeded = run_sweep(bench_subset, cache=cache)
        assert seeded.computed == 2
        again = run_scenario(table7, cells=2, cache=cache)
        assert again.cached == 2 and again.computed == 0
        assert [row_line(r) for r in again.rows] == \
            [row_line(r) for r in seeded.rows]


class TestCommittedBaselines:
    def test_table6_reproduces_its_committed_baseline(self):
        # pure-analytic: cheap enough to rerun in full under tier-1
        scenario = load_scenario("table6")
        result = run_scenario(scenario)
        from repro.scenarios.loader import default_catalog_dir
        root = default_catalog_dir()
        diff = compare_to_baseline(
            result, root / "baselines" / "table6.jsonl"
        )
        assert diff.identical, diff.summary()
