"""Unit + property tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.core.parameters import Deviation, WorkloadParams
from repro.workloads import (
    ideal_workload,
    make_event_table,
    multiple_activity_centers_workload,
    read_disturbance_workload,
    write_disturbance_workload,
)
from repro.workloads.base import EventTable


class TestEventTable:
    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            EventTable((1, 2), ("read", "read"), (0.4, 0.4))

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            EventTable((1,), ("read", "write"), (0.5, 0.5))

    def test_make_event_table_read_disturbance(self):
        w = WorkloadParams(N=5, p=0.3, a=2, sigma=0.1)
        t = make_event_table(w, Deviation.READ)
        assert t.nodes == (1, 1, 2, 3)
        assert t.kinds == ("read", "write", "read", "read")
        assert sum(t.probs) == pytest.approx(1.0)

    def test_make_event_table_write_disturbance(self):
        w = WorkloadParams(N=5, p=0.3, a=2, xi=0.2)
        t = make_event_table(w, Deviation.WRITE)
        assert t.kinds[2:] == ("write", "write")

    def test_make_event_table_mac(self):
        w = WorkloadParams(N=5, p=0.4, beta=3)
        t = make_event_table(w, Deviation.MULTIPLE_ACTIVITY_CENTERS)
        assert set(t.nodes) == {1, 2, 3}
        assert sum(t.probs) == pytest.approx(1.0)


class TestSampling:
    def test_empirical_frequencies_match(self, rng):
        """Sampled relative frequencies converge to the specification."""
        params = WorkloadParams(N=5, p=0.3, a=2, sigma=0.15)
        wl = read_disturbance_workload(params, M=1)
        ops = wl.sample(rng, 40_000)
        writes_ac = sum(1 for n, k, _ in ops if n == 1 and k == "write")
        reads_d2 = sum(1 for n, k, _ in ops if n == 2 and k == "read")
        assert writes_ac / len(ops) == pytest.approx(0.3, abs=0.01)
        assert reads_d2 / len(ops) == pytest.approx(0.15, abs=0.01)

    def test_objects_uniform(self, rng):
        params = WorkloadParams(N=3, p=0.5, a=0)
        wl = ideal_workload(params, M=4)
        ops = wl.sample(rng, 20_000)
        counts = np.bincount([o for _n, _k, o in ops], minlength=5)[1:]
        assert counts.min() > 0.2 * len(ops)

    def test_ideal_workload_single_node(self, rng):
        params = WorkloadParams(N=3, p=0.5, a=2, sigma=0.1)
        wl = ideal_workload(params, M=2)
        ops = wl.sample(rng, 1000)
        assert {n for n, _k, _o in ops} == {1}

    def test_mac_only_centers_act(self, rng):
        params = WorkloadParams(N=6, p=0.4, beta=3)
        wl = multiple_activity_centers_workload(params, M=1)
        ops = wl.sample(rng, 2000)
        assert {n for n, _k, _o in ops} <= {1, 2, 3}

    def test_describe_mentions_deviation(self):
        params = WorkloadParams(N=4, p=0.5, a=1, xi=0.1)
        wl = write_disturbance_workload(params, M=2)
        assert "write_disturbance" in wl.describe()
