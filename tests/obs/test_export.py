"""Export-layer tests: golden schema, byte-determinism, cost conservation.

These are the PR's acceptance tests: every exported Chrome trace must
validate against :data:`~repro.obs.export.CHROME_TRACE_SCHEMA`, the sum
of span costs must equal the metrics' total attributed cost (the
invariant holds by construction — both come from the same charging
sites), and the same :class:`~repro.sim.config.RunConfig` + seed must
produce a byte-identical trace, fault-free or chaotic.
"""

import json

import pytest

from repro.core import WorkloadParams
from repro.obs import TraceConfig
from repro.obs.export import (
    chrome_trace,
    events_jsonl,
    trace_json,
    validate_chrome_trace,
)
from repro.sim import (
    CrashWindow,
    DSMSystem,
    FaultPlan,
    LinkFault,
    PartitionPlan,
    RunConfig,
)
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.2, a=2, sigma=0.1, S=50.0, P=20.0)


def _chaotic_config(sample_every=1):
    """A run exercising faults, partitions, failover and the monitor."""
    return RunConfig(
        ops=400, warmup=50, seed=7, mean_gap=15.0,
        faults=FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.02,
                         crashes=[CrashWindow(1, 400.0, 900.0,
                                              semantics="amnesia")]),
        partitions=PartitionPlan(seed=5,
                                 links=[LinkFault(2, 3, 500.0, 800.0)]),
        failover=True, monitor=True,
        tracing=TraceConfig(sample_every=sample_every),
    )


def _run(config):
    """Build a fresh system for ``config`` and run the workload."""
    system = DSMSystem("berkeley", N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    system.run_workload(read_disturbance_workload(PARAMS, M=2))
    return system


class TestCostConservation:
    """sum(span costs) == total attributed cost, by construction."""

    def test_fault_free(self):
        config = RunConfig(ops=500, warmup=50, seed=2,
                           tracing=TraceConfig())
        system = _run(config)
        tracer = system.tracer
        metrics = system.metrics
        op_total = sum(rec.cost for rec in metrics._ops.values())
        assert tracer.total_cost() == pytest.approx(
            op_total + metrics.unattributed_cost
        )
        for span in tracer.spans:
            assert span.cost == pytest.approx(
                sum(ev.cost for ev in span.events)
            )
            assert span.cost == pytest.approx(metrics._ops[span.op_id].cost)

    def test_under_chaos(self):
        system = _run(_chaotic_config())
        tracer = system.tracer
        metrics = system.metrics
        op_total = sum(rec.cost for rec in metrics._ops.values())
        expected = (op_total + metrics.unattributed_cost
                    + metrics.recovery.cost + metrics.partition.cost)
        assert tracer.total_cost() == pytest.approx(expected)
        assert tracer.total_cost() > 0


class TestGoldenSchema:
    def test_fault_free_trace_validates(self):
        config = RunConfig(ops=300, warmup=30, seed=1,
                           tracing=TraceConfig())
        payload = chrome_trace(_run(config).tracer, label="test")
        assert validate_chrome_trace(payload) == []

    def test_chaotic_trace_validates(self):
        payload = chrome_trace(_run(_chaotic_config()).tracer)
        assert validate_chrome_trace(payload) == []

    def test_exported_json_reparses_and_validates(self):
        config = RunConfig(ops=200, warmup=20, seed=4,
                           tracing=TraceConfig())
        text = trace_json(_run(config).tracer, label="roundtrip")
        assert validate_chrome_trace(json.loads(text)) == []

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Q"}], "displayTimeUnit": "ms",
             "otherData": {}}
        ) != []

    def test_validator_rejects_missing_span_fields(self):
        bad = {
            "traceEvents": [{"ph": "X", "name": "op", "pid": 1, "tid": 0,
                             "ts": 0.0}],  # no dur/cat/args
            "displayTimeUnit": "ms",
            "otherData": {},
        }
        problems = validate_chrome_trace(bad)
        assert any("dur" in p for p in problems)

    def test_validator_rejects_negative_duration(self):
        bad = {
            "traceEvents": [{"ph": "X", "name": "op", "cat": "op",
                             "pid": 1, "tid": 0, "ts": 0.0, "dur": -1.0,
                             "args": {}}],
            "displayTimeUnit": "ms",
            "otherData": {},
        }
        problems = validate_chrome_trace(bad)
        assert any("negative duration" in p for p in problems)


class TestByteDeterminism:
    def test_fault_free_trace_is_byte_identical(self):
        config = RunConfig(ops=300, warmup=30, seed=9,
                           tracing=TraceConfig())
        a = trace_json(_run(config).tracer, label="same")
        b = trace_json(_run(config).tracer, label="same")
        assert a == b

    def test_chaotic_trace_is_byte_identical(self):
        config = _chaotic_config()
        a = trace_json(_run(config).tracer, label="same")
        b = trace_json(_run(config).tracer, label="same")
        assert a == b

    def test_different_seed_changes_the_trace(self):
        base = RunConfig(ops=300, warmup=30, seed=9,
                         tracing=TraceConfig())
        a = trace_json(_run(base).tracer, label="same")
        b = trace_json(_run(base.with_(seed=10)).tracer, label="same")
        assert a != b

    def test_jsonl_stream_is_byte_identical(self):
        config = _chaotic_config(sample_every=3)
        a = events_jsonl(_run(config).tracer)
        b = events_jsonl(_run(config).tracer)
        assert a == b
        # every line is standalone canonical JSON
        for line in a.splitlines():
            assert json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":")) == line


class TestSampling:
    def test_sampled_run_keeps_every_kth_span(self):
        config = _chaotic_config(sample_every=7)
        tracer = _run(config).tracer
        assert len(tracer.spans) == -(-tracer.ops_seen // 7)  # ceil
        assert tracer.dropped_events > 0

    def test_sampling_never_changes_simulation_results(self):
        config = RunConfig(ops=300, warmup=30, seed=6,
                           tracing=TraceConfig())
        full = _run(config)
        sampled = _run(config.with_(tracing=TraceConfig(sample_every=50)))
        untraced = _run(config.with_(tracing=None))
        acc = full.metrics.average_cost(skip=30)
        assert sampled.metrics.average_cost(skip=30) == acc
        assert untraced.metrics.average_cost(skip=30) == acc

    def test_chrome_trace_reports_dropped_events(self):
        config = _chaotic_config(sample_every=5)
        payload = chrome_trace(_run(config).tracer)
        other = payload["otherData"]
        assert other["sample_every"] == 5
        assert other["dropped_events"] > 0
        assert other["spans"] < other["ops_seen"]
