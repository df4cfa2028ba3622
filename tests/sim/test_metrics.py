"""Unit tests for cost accounting and trace classification."""

import pytest

from repro.machines.message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
)
from repro.sim.metrics import Metrics


def msg(op_id, mtype=MsgType.R_PER, presence=ParamPresence.NONE):
    token = MessageToken(mtype, 1, 1, QueueTag.DISTRIBUTED, presence)
    return Message(token, 1, 4, op_id=op_id)


class TestRecording:
    def test_cost_attribution(self):
        m = Metrics()
        m.register_op(1, 1, "read", 1, 0.0)
        m.record_message(msg(1), 1.0)
        m.record_message(msg(1, MsgType.R_GNT, ParamPresence.USER_INFO), 101.0)
        m.record_complete(1, 5.0)
        assert m.op(1).cost == 102.0

    def test_unattributed_cost_tracked(self):
        m = Metrics()
        m.record_message(msg(None), 3.0)
        m.record_message(msg(42), 4.0)  # unknown op
        assert m.unattributed_cost == 7.0

    def test_double_completion_rejected(self):
        m = Metrics()
        m.register_op(1, 1, "read", 1, 0.0)
        m.record_complete(1, 1.0)
        with pytest.raises(RuntimeError):
            m.record_complete(1, 2.0)

    def test_signature_records_type_and_presence(self):
        m = Metrics()
        m.register_op(1, 1, "read", 1, 0.0)
        m.record_message(msg(1, MsgType.R_PER), 1.0)
        m.record_message(msg(1, MsgType.R_GNT, ParamPresence.USER_INFO), 101.0)
        assert m.op(1).signature == [("R-PER", "0"), ("R-GNT", "ui")]

    def test_signature_entries_are_shared(self):
        """Charging a message allocates no entry: equal headers share one."""
        m = Metrics()
        m.register_op(1, 1, "write", 1, 0.0)
        m.register_op(2, 2, "write", 1, 0.0)
        m.record_message(msg(1, MsgType.W_INV), 1.0)
        m.record_message(msg(2, MsgType.W_INV), 1.0)
        first, second = m.op(1).signature[0], m.op(2).signature[0]
        assert first is second
        assert first == ("W-INV", "0")


class TestWindows:
    def _filled(self, costs):
        m = Metrics()
        for i, c in enumerate(costs, start=1):
            m.register_op(i, 1, "read", 1, 0.0)
            if c:
                m.record_message(msg(i), c)
            m.record_complete(i, float(i))
        return m

    def test_average_cost_full(self):
        m = self._filled([2.0, 4.0, 6.0])
        assert m.average_cost() == pytest.approx(4.0)

    def test_warmup_skip(self):
        """The paper's procedure: drop the transient prefix."""
        m = self._filled([100.0, 100.0, 2.0, 4.0])
        assert m.average_cost(skip=2) == pytest.approx(3.0)

    def test_take_window(self):
        m = self._filled([1.0, 2.0, 3.0, 4.0, 5.0])
        assert m.average_cost(skip=1, take=2) == pytest.approx(2.5)

    def test_empty_window_raises(self):
        m = self._filled([1.0])
        with pytest.raises(ValueError):
            m.average_cost(skip=5)

    def test_completion_order_not_id_order(self):
        m = Metrics()
        for i in (1, 2):
            m.register_op(i, i, "read", 1, 0.0)
        m.record_message(msg(2), 10.0)
        m.record_complete(2, 1.0)
        m.record_complete(1, 2.0)
        recs = m.records()
        assert [r.op_id for r in recs] == [2, 1]

    def test_latency_stats(self):
        m = Metrics()
        for i, (issue, complete) in enumerate(
            [(0.0, 1.0), (0.0, 3.0), (1.0, 9.0), (2.0, 2.0)], start=1
        ):
            m.register_op(i, 1, "read", 1, issue)
            m.record_complete(i, complete)
        stats = m.latency_stats()
        assert stats["mean"] == pytest.approx((1 + 3 + 8 + 0) / 4)
        assert stats["max"] == 8.0
        assert stats["p50"] <= stats["p95"] <= stats["max"]

    def test_latency_stats_empty_window(self):
        m = Metrics()
        with pytest.raises(ValueError):
            m.latency_stats()

    def test_groupby_and_histogram(self):
        m = Metrics()
        m.register_op(1, 1, "read", 1, 0.0)
        m.register_op(2, 1, "write", 1, 0.0)
        m.register_op(3, 2, "read", 1, 0.0)
        m.record_message(msg(2, MsgType.W_PER, ParamPresence.WRITE), 31.0)
        for i in (1, 2, 3):
            m.record_complete(i, float(i))
        by = m.average_cost_by()
        assert by[(1, "write")] == (31.0, 1)
        assert by[(2, "read")] == (0.0, 1)
        hist = m.trace_histogram()
        assert hist[()] == 2  # two purely local traces
        assert hist[(("W-PER", "w"),)] == 1


class TestLatencyStatsEdges:
    def _metrics(self, latencies):
        m = Metrics()
        for i, lat in enumerate(latencies, start=1):
            m.register_op(i, 1, "read", 1, float(i))
            m.record_complete(i, float(i) + lat)
        return m

    def test_empty_metrics_raise(self):
        with pytest.raises(ValueError, match="no completed"):
            Metrics().latency_stats()

    def test_single_record_collapses_all_stats(self):
        stats = self._metrics([7.0]).latency_stats()
        assert stats == {
            "mean": 7.0, "p50": 7.0, "p95": 7.0, "p99": 7.0, "max": 7.0,
        }

    def test_skip_drops_leading_completions(self):
        stats = self._metrics([1.0, 2.0, 3.0]).latency_stats(skip=1)
        assert stats["mean"] == 2.5
        assert stats["max"] == 3.0

    def test_take_bounds_the_window(self):
        stats = self._metrics([1.0, 2.0, 3.0]).latency_stats(skip=1, take=1)
        assert stats == {
            "mean": 2.0, "p50": 2.0, "p95": 2.0, "p99": 2.0, "max": 2.0,
        }

    def test_skip_past_end_raises(self):
        m = self._metrics([1.0, 2.0])
        with pytest.raises(ValueError, match="no completed"):
            m.latency_stats(skip=2)

    def test_incomplete_ops_excluded(self):
        m = self._metrics([4.0])
        m.register_op(99, 1, "read", 1, 0.0)  # never completes
        assert m.latency_stats()["mean"] == 4.0


class TestRecoveryShare:
    def test_recovery_cost_is_separate_breakdown_share(self):
        m = Metrics()
        for i in (1, 2):
            m.register_op(i, 1, "read", 1, 0.0)
            m.record_message(msg(i), 10.0)
            m.record_complete(i, 1.0)
        m.record_recovery_cost(6.0)
        breakdown = m.average_cost_breakdown()
        assert breakdown["protocol"] == 10.0
        assert breakdown["recovery"] == 3.0
        # "acc" keeps its PR-2 meaning: protocol + reliability only.
        assert breakdown["acc"] == breakdown["protocol"] + \
            breakdown["reliability"]
        assert m.recovery.cost == 6.0


class TestTraceHistogramEdges:
    def _metrics(self, n=5):
        """n completed ops: odd ids distributed, even ids local."""
        m = Metrics()
        for i in range(1, n + 1):
            m.register_op(i, 1, "read", 1, float(i))
            if i % 2:
                m.record_message(msg(i), 1.0)
            m.record_complete(i, float(i) + 1.0)
        return m

    def test_empty_metrics_yield_empty_histogram(self):
        hist = Metrics().trace_histogram()
        assert hist == {}
        assert sum(hist.values()) == 0

    def test_take_zero_is_an_empty_window(self):
        assert self._metrics().trace_histogram(take=0) == {}

    def test_skip_beyond_completed_is_empty(self):
        m = self._metrics(n=3)
        assert m.trace_histogram(skip=3) == {}
        assert m.trace_histogram(skip=100) == {}

    def test_skip_and_take_window(self):
        m = self._metrics(n=5)
        # completion order is 1..5; skip the first two, take two: ops 3, 4
        hist = m.trace_histogram(skip=2, take=2)
        assert sum(hist.values()) == 2
        assert hist[()] == 1  # op 4 was purely local

    def test_take_larger_than_remaining_is_clamped(self):
        m = self._metrics(n=3)
        hist = m.trace_histogram(skip=1, take=99)
        assert sum(hist.values()) == 2

    def test_full_histogram_counts_every_completion(self):
        m = self._metrics(n=5)
        assert sum(m.trace_histogram().values()) == 5

    def test_incomplete_ops_never_counted(self):
        m = self._metrics(n=2)
        m.register_op(99, 1, "read", 1, 10.0)  # never completes
        assert sum(m.trace_histogram().values()) == 2
