"""Sweep-runner behaviour: determinism, caching, streaming, crash safety."""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.cli import main
from repro.core.parameters import WorkloadParams
from repro.exp import ResultCache, SweepCell, SweepSpec, run_sweep
from repro.exp import runner as runner_mod
from repro.exp.runner import row_line, run_cell
from repro.sim import CacheConfig, FaultPlan, ReliabilityConfig, RunConfig
from repro.validation import compare_cell

BASE = WorkloadParams(N=3, p=0.0, a=2, S=100.0, P=30.0)


def small_spec(seed=0):
    """A small Table-7-style compare grid (8 feasible cells)."""
    return SweepSpec.cartesian(
        ["write_once", "write_through_v"], BASE,
        [0.0, 0.4], [0.0, 0.2],
        config=RunConfig(ops=300, warmup=75), seed=seed,
    )


def lines(result):
    return sorted(row_line(r) for r in result.rows)


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        spec = small_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.failed == parallel.failed == 0
        assert lines(serial) == lines(parallel)

    def test_rows_in_spec_order(self):
        spec = small_spec()
        result = run_sweep(spec, workers=2)
        assert [r["id"] for r in result.rows] == \
            [c.cell_id() for c in spec]

    def test_rerun_identical(self):
        spec = small_spec()
        assert lines(run_sweep(spec)) == lines(run_sweep(spec))


class TestRunCell:
    def test_analytic_row(self):
        cell = SweepCell(protocol="write_once",
                         params=BASE.with_(p=0.3, sigma=0.1),
                         kind="analytic", method="markov")
        row = run_cell(cell)
        assert row["status"] == "ok"
        assert row["method"] == "markov"
        assert row["acc_analytic"] > 0
        assert "acc_sim" not in row

    def test_sim_row_with_reliability_fields(self):
        cell = SweepCell(
            protocol="write_through",
            params=BASE.with_(p=0.3, sigma=0.1),
            kind="sim", M=1,
            config=RunConfig(ops=300, warmup=75, seed=4,
                             faults=FaultPlan(seed=2, drop_rate=0.1),
                             reliability=ReliabilityConfig(timeout=4.0,
                                                           max_retries=20)),
        )
        row = run_cell(cell)
        assert row["status"] == "ok"
        assert row["acc_sim"] > 0
        assert row["retransmissions"] > 0
        assert row["acc_protocol_share"] + row["acc_reliability_share"] == \
            pytest.approx(row["acc_sim"])
        assert "acc_analytic" not in row

    def test_compare_row_discrepancy(self):
        cell = SweepCell(protocol="write_through",
                         params=BASE.with_(p=0.4, sigma=0.1),
                         kind="compare", M=5,
                         config=RunConfig(ops=800, warmup=200, seed=1))
        row = run_cell(cell)
        expected = 100.0 * (row["acc_analytic"] - row["acc_sim"]) \
            / row["acc_analytic"]
        assert row["discrepancy_pct"] == pytest.approx(expected)

    def test_rows_are_json_safe(self):
        for cell in small_spec():
            json.loads(row_line(run_cell(cell)))


class TestOneRunPath:
    """Every synthetic-workload entry point runs the same simulation.

    The pinned values were measured before the entry points shared
    :func:`~repro.exp.runner.simulate_cell`.
    """

    POINT = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100, P=30)
    POINT_FLAGS = ["--N", "4", "--p", "0.3", "--a", "2", "--sigma", "0.1",
                   "--S", "100", "--P", "30"]

    @pytest.mark.parametrize("protocol,M,config,flags,acc,messages", [
        ("write_through", 2,
         RunConfig(ops=400, seed=1, faults=FaultPlan(seed=3, drop_rate=0.1),
                   monitor=True),
         ["--ops", "400", "--seed", "1", "--drop-rate", "0.1",
          "--fault-seed", "3", "--monitor"],
         52.54333333333334, 1660),
        ("berkeley", 3,
         RunConfig(ops=600, seed=5, cache=CacheConfig(capacity=1)),
         ["--ops", "600", "--seed", "5", "--cache-capacity", "1"],
         16.38888888888889, 542),
    ], ids=["faults-monitor", "bounded-cache"])
    def test_entry_points_agree(self, protocol, M, config, flags, acc,
                                messages, capsys):
        result = api.simulate(protocol, self.POINT, "read", run=config, M=M)
        assert (result.acc, result.messages) == (acc, messages)
        row = run_cell(SweepCell(protocol, self.POINT, kind="sim", M=M,
                                 config=config))
        assert (row["acc_sim"], row["messages"]) == (acc, messages)
        assert compare_cell(protocol, self.POINT, M=M,
                            config=config).acc_sim == acc
        assert main(["simulate", protocol, *self.POINT_FLAGS,
                     "--M", str(M), *flags]) == 0
        out = capsys.readouterr().out
        assert f"simulated acc   = {acc:.4f}\n" in out
        assert f"messages        = {messages}\n" in out


class TestCaching:
    def test_second_run_fully_cached(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, cache=tmp_path)
        assert first.cached == 0 and first.computed == len(spec)
        second = run_sweep(spec, cache=tmp_path)
        assert second.computed == 0
        assert second.cached == len(spec)
        assert second.cache_stats.hit_rate == 1.0
        assert lines(first) == lines(second)

    def test_changed_config_recomputes(self, tmp_path):
        run_sweep(small_spec(seed=0), cache=tmp_path)
        different = run_sweep(small_spec(seed=1), cache=tmp_path)
        assert different.cached == 0

    def test_cache_instance_accepted(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(small_spec(), cache=cache)
        assert cache.stats.stores == len(small_spec())


class TestStreaming:
    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "nested" / "rows.jsonl"
        result = run_sweep(small_spec(), out_path=out)
        text = out.read_text().splitlines()
        assert len(text) == result.total
        assert sorted(text) == lines(result)

    def test_progress_callback(self):
        seen = []
        result = run_sweep(
            small_spec(),
            progress=lambda done, total, row: seen.append((done, total)),
        )
        assert seen == [(i + 1, result.total) for i in range(result.total)]


def _exit_on_write_once(payload):
    """A worker that hard-kills its process for one protocol."""
    if payload["protocol"] == "write_once":
        os._exit(1)
    return runner_mod.run_cell(SweepCell.from_payload(payload))


def _raise_on_write_once(payload):
    if payload["protocol"] == "write_once":
        raise RuntimeError("boom")
    return runner_mod.run_cell(SweepCell.from_payload(payload))


class TestFailureHandling:
    def test_worker_crash_marks_cell_failed_and_sweep_completes(
        self, monkeypatch
    ):
        monkeypatch.setattr(runner_mod, "_worker", _exit_on_write_once)
        result = run_sweep(small_spec(), workers=2)
        failed = [r for r in result.rows if r["status"] == "failed"]
        ok = [r for r in result.rows if r["status"] == "ok"]
        assert result.total == len(small_spec())
        assert failed and all(r["protocol"] == "write_once" for r in failed)
        assert all("crashed" in r["error"] for r in failed)
        assert ok and all(r["protocol"] == "write_through_v" for r in ok)

    def test_pool_broken_during_submission_retries_the_rest(
        self, monkeypatch
    ):
        """A worker can crash the pool before every cell is submitted;
        the cells not yet submitted are retried in isolation, not lost."""
        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(pool, fn, *args):
            calls.append(pool._max_workers)
            if len(calls) == 2 and pool._max_workers == 2:
                raise BrokenProcessPool("broken during submission")
            return real_submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        spec = small_spec()
        result = run_sweep(spec, workers=2)
        assert result.failed == 0
        # one cell went to the shared pool, the rest one pool each
        assert calls[:2] == [2, 2] and set(calls[2:]) == {1}
        assert len(calls) == 1 + len(result.rows)
        assert lines(result) == lines(run_sweep(spec, workers=1))

    def test_worker_exception_marks_cell_failed(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_worker", _raise_on_write_once)
        for workers in (1, 2):
            result = run_sweep(small_spec(), workers=workers)
            failed = [r for r in result.rows if r["status"] == "failed"]
            assert len(failed) == 4
            assert all("RuntimeError: boom" in r["error"] for r in failed)

    def test_failed_rows_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_worker", _raise_on_write_once)
        run_sweep(small_spec(), cache=tmp_path)
        monkeypatch.undo()
        again = run_sweep(small_spec(), cache=tmp_path)
        assert again.failed == 0
        # only the previously-ok half is served from cache
        assert again.cached == 4 and again.computed == 4

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_spec(), workers=0)
