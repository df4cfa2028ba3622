"""Integration: metrics publication, sweep/chaos registries, replay traces."""

import json

from repro.core import WorkloadParams
from repro.exp import SweepSpec, run_sweep
from repro.obs import MetricsRegistry, TraceConfig
from repro.sim import CrashWindow, DSMSystem, FaultPlan, RunConfig
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.2, a=2, sigma=0.1, S=50.0, P=20.0)


def _run_system(config):
    system = DSMSystem("berkeley", N=PARAMS.N, M=2, S=PARAMS.S,
                       P=PARAMS.P, config=config)
    system.run_workload(read_disturbance_workload(PARAMS, M=2))
    return system


class TestPublish:
    def test_publish_metrics_populates_registry(self):
        config = RunConfig(ops=300, warmup=30, seed=1)
        system = _run_system(config)
        reg = MetricsRegistry()
        system.publish_metrics(reg, skip=30)
        assert reg.gauge("sim.ops_completed").value == 270  # 300 - skip
        assert reg.histogram("sim.op_latency").count > 0
        summary = reg.histogram("sim.op_latency").summary()
        for key in ("p50", "p95", "p99"):
            assert key in summary
        assert "sim.acc.protocol" in reg
        assert reg.gauge("sim.events_executed").value > 0

    def test_publish_with_window_limits_histogram(self):
        config = RunConfig(ops=300, warmup=0, seed=1)
        system = _run_system(config)
        reg = MetricsRegistry()
        system.publish_metrics(reg, window=50)
        hist = reg.histogram("sim.op_latency")
        assert hist.count == 300
        assert len(hist.values) == 50

    def test_degraded_run_publishes_reliability_groups(self):
        config = RunConfig(
            ops=300, warmup=30, seed=2,
            faults=FaultPlan(seed=1, drop_rate=0.05,
                             crashes=[CrashWindow(2, 300.0, 600.0)]),
        )
        system = _run_system(config)
        reg = MetricsRegistry()
        system.publish_metrics(reg, skip=30)
        assert "sim.reliability.retransmissions" in reg
        assert "sim.reliability.crashes" in reg


class TestSweepRegistry:
    def _spec(self, tracing=None):
        base = WorkloadParams(N=4, p=0.0, a=2, S=50.0, P=20.0)
        return SweepSpec.cartesian(
            ["berkeley", "dragon"], base, p_values=[0.2],
            disturb_values=[0.1],
            config=RunConfig(ops=200, warmup=20, seed=None,
                             tracing=tracing),
        )

    def test_rows_carry_events_executed_but_not_wall_clock(self):
        result = run_sweep(self._spec())
        for row in result.rows:
            assert row["events_executed"] > 0
            assert "_wall_clock_s" not in row

    def test_timings_cover_computed_cells(self):
        result = run_sweep(self._spec())
        assert set(result.timings) == {r["id"] for r in result.rows}
        assert all(t > 0 for t in result.timings.values())

    def test_cached_cells_have_no_timing(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_sweep(self._spec(), cache=cache)
        again = run_sweep(self._spec(), cache=cache)
        assert again.cached == again.total
        assert again.timings == {}
        # and the cached rows are identical to the computed ones
        assert again.rows == first.rows

    def test_registry_counters_and_histogram(self):
        reg = MetricsRegistry()
        result = run_sweep(self._spec(), registry=reg)
        assert reg.counter("sweep.cells").value == result.total
        assert reg.counter("sweep.computed").value == result.computed
        assert reg.counter("sweep.failed").value == 0
        assert (reg.histogram("sweep.cell_wall_clock_s").count
                == result.computed)
        assert reg.counter("sweep.events_executed").value == sum(
            r["events_executed"] for r in result.rows
        )

    def test_traced_sweep_rows_stay_deterministic(self):
        a = run_sweep(self._spec(tracing=TraceConfig(sample_every=2)))
        b = run_sweep(self._spec(tracing=TraceConfig(sample_every=2)))
        assert a.rows == b.rows


class TestChaosReplayTrace:
    def _repro_file(self, tmp_path):
        from repro.exp.spec import SweepCell
        cell = SweepCell(
            protocol="berkeley",
            params=PARAMS,
            kind="sim", M=2,
            config=RunConfig(
                ops=200, warmup=20, seed=5, monitor=True,
                faults=FaultPlan(seed=3, drop_rate=0.05,
                                 crashes=[CrashWindow(2, 300.0, 600.0)]),
            ),
        )
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({"cell": cell.to_payload()}),
                        encoding="utf-8")
        return path

    def test_replay_trace_is_byte_identical_and_valid(self, tmp_path):
        from repro.chaos import replay_repro
        from repro.obs.export import validate_chrome_trace
        path = self._repro_file(tmp_path)
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        row1 = replay_repro(path, trace_out=out1)
        row2 = replay_repro(path, trace_out=out2)
        assert row1 == row2
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    def test_replay_without_trace_matches_traced_row(self, tmp_path):
        from repro.chaos import replay_repro
        path = self._repro_file(tmp_path)
        plain = replay_repro(path)
        traced = replay_repro(path, trace_out=tmp_path / "t.json",
                              trace_sample=10)
        assert plain == traced  # tracing only observes

    def test_chaos_campaign_publishes_counters(self):
        from repro.chaos import ChaosOptions, run_chaos
        reg = MetricsRegistry()
        options = ChaosOptions(base_seed=0, seeds=2,
                               protocols=("berkeley",), N=4, M=2, ops=120)
        report = run_chaos(options, registry=reg)
        assert reg.counter("chaos.cells").value == report.cells
        assert (reg.counter("chaos.findings").value
                == len(report.findings))
        assert reg.counter("sweep.cells").value == report.cells
