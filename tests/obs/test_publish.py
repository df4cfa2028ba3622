"""Integration: metrics publication, sweep/chaos registries, replay traces."""

import json

import pytest

from repro.core import WorkloadParams
from repro.exp import SweepSpec, run_sweep
from repro.obs import MetricsRegistry, Profiler, TraceConfig
from repro.sim import CrashWindow, DSMSystem, FaultPlan, RunConfig
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.2, a=2, sigma=0.1, S=50.0, P=20.0)


def _run_system(config, profiler=None):
    system = DSMSystem("berkeley", N=PARAMS.N, M=2, S=PARAMS.S,
                       P=PARAMS.P, config=config, profiler=profiler)
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


class TestProfilerWiring:
    def test_profiler_collects_hot_paths(self):
        config = RunConfig(ops=200, warmup=20, seed=1)
        profiler = Profiler()
        system = _run_system(config, profiler=profiler)
        stats = profiler.stats()
        assert stats["engine.dispatch"]["calls"] == \
            system.scheduler.executed
        assert "protocol.on_request" in stats
        assert "protocol.on_message" in stats

    @pytest.mark.parametrize("faulty", [False, True])
    def test_profiler_times_every_event_on_a_reliable_fabric(
            self, monkeypatch, faulty):
        """Retransmission timers sit in the heap and frames on the
        physical fabric, faulty or not, are posted handle-free; every one
        of them is a timed dispatch."""
        from repro.sim import ReliabilityConfig
        from repro.sim.engine import EventScheduler
        posts = []
        post = EventScheduler.post

        def counting_post(sched, *args):
            posts.append(args[0])
            post(sched, *args)

        monkeypatch.setattr(EventScheduler, "post", counting_post)
        faults = (FaultPlan(seed=1, drop_rate=0.05,
                            crashes=[CrashWindow(2, 300.0, 600.0)])
                  if faulty else None)
        profiler = Profiler()
        system = _run_system(
            RunConfig(ops=300, warmup=30, seed=2, faults=faults,
                      reliability=ReliabilityConfig()),
            profiler=profiler)
        assert system.metrics.reliability.acks > 0  # timers were armed
        assert posts  # lane events mixed in
        assert (profiler.stats()["engine.dispatch"]["calls"]
                == system.scheduler.executed)

    def test_profiler_times_every_event_on_a_jittered_fabric(
            self, monkeypatch):
        """Jitter sends some faulty deliveries to the lane and some, due
        before the lane's tail, to the heap; with drops, retry timers are
        armed, cancelled on ack and fired.  Every live event is timed
        once and no cancelled one is."""
        from repro.sim import ReliabilityConfig
        from repro.sim.engine import EventScheduler, TimerHandle
        lane_posts = []
        heap_posts = []
        cancels = []
        post = EventScheduler.post
        cancel = TimerHandle.cancel

        def sorting_post(sched, delay, callback, arg):
            ahead = sched.now + delay < sched._lane_tail
            (heap_posts if ahead else lane_posts).append(delay)
            post(sched, delay, callback, arg)

        def counting_cancel(handle):
            cancelled = cancel(handle)
            cancels.append(cancelled)
            return cancelled

        monkeypatch.setattr(EventScheduler, "post", sorting_post)
        monkeypatch.setattr(TimerHandle, "cancel", counting_cancel)
        faults = FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05,
                           jitter=2.0)
        profiler = Profiler()
        system = _run_system(
            RunConfig(ops=300, warmup=30, seed=2, faults=faults,
                      reliability=ReliabilityConfig()),
            profiler=profiler)
        assert lane_posts and heap_posts
        assert any(cancels)  # acked retry timers left in the heap
        assert system.metrics.reliability.retransmissions > 0
        assert (profiler.stats()["engine.dispatch"]["calls"]
                == system.scheduler.executed)

    def test_profiler_parity_on_a_fault_free_quorum_run(self, monkeypatch):
        """sc_abd on the plain fabric mixes lane posts (deliveries), heap
        timers (quorum phases) and timers cancelled when a phase
        completes.  Every live event is one timed dispatch and every
        delivered message one timed ``on_message``."""
        from repro.sim.channel import Network
        from repro.sim.engine import EventScheduler, TimerHandle
        posts = []
        timers = []
        cancels = []
        delivered = []
        post = EventScheduler.post
        schedule = EventScheduler.schedule
        cancel = TimerHandle.cancel
        deliver = Network._deliver

        def counting_post(sched, *args):
            posts.append(args[0])
            post(sched, *args)

        def counting_schedule(sched, *args):
            timers.append(args[0])
            return schedule(sched, *args)

        def counting_cancel(handle):
            cancelled = cancel(handle)
            cancels.append(cancelled)
            return cancelled

        def counting_deliver(net, item):
            delivered.append(item[2])
            deliver(net, item)

        monkeypatch.setattr(EventScheduler, "post", counting_post)
        monkeypatch.setattr(EventScheduler, "schedule", counting_schedule)
        monkeypatch.setattr(TimerHandle, "cancel", counting_cancel)
        monkeypatch.setattr(Network, "_deliver", counting_deliver)
        profiler = Profiler()
        system = DSMSystem("sc_abd", N=PARAMS.N, M=2, S=PARAMS.S,
                           P=PARAMS.P, profiler=profiler)
        result = system.run_workload(
            read_disturbance_workload(PARAMS, M=2),
            RunConfig(ops=300, warmup=30, seed=2))
        assert result.incomplete_ops == 0
        assert posts and timers and any(cancels)
        assert len(delivered) == result.messages
        stats = profiler.stats()
        assert (stats["engine.dispatch"]["calls"]
                == system.scheduler.executed)
        assert stats["protocol.on_message"]["calls"] == len(delivered)

    def test_profiler_output_stays_out_of_results(self):
        config = RunConfig(ops=200, warmup=20, seed=1)
        with_prof = _run_system(config, profiler=Profiler())
        without = _run_system(config)
        assert (with_prof.metrics.average_cost(skip=20)
                == without.metrics.average_cost(skip=20))
