"""Unit tests for the chain builders and the exact Markov evaluation."""

import pytest

from repro.core.chains import build_chain, deviation_groups, markov_acc
from repro.core.parameters import Deviation, WorkloadParams

ALL = ["write_through", "write_through_v", "write_once", "synapse",
       "illinois", "berkeley", "dragon", "firefly"]


class TestGroups:
    def test_read_disturbance_groups(self):
        w = WorkloadParams(N=5, p=0.3, a=2, sigma=0.1)
        groups = deviation_groups(w, Deviation.READ)
        assert [g.name for g in groups] == ["ac", "dist"]
        total = sum(g.size * (g.read_rate + g.write_rate) for g in groups)
        assert total == pytest.approx(1.0)

    def test_write_disturbance_groups(self):
        w = WorkloadParams(N=5, p=0.3, a=2, xi=0.2)
        groups = deviation_groups(w, Deviation.WRITE)
        assert groups[1].write_rate == pytest.approx(0.2)
        assert groups[1].read_rate == 0.0

    def test_mac_groups(self):
        w = WorkloadParams(N=5, p=0.4, beta=3)
        (g,) = deviation_groups(w, Deviation.MULTIPLE_ACTIVITY_CENTERS)
        assert g.size == 3
        assert g.size * (g.read_rate + g.write_rate) == pytest.approx(1.0)

    def test_no_disturbers_single_group(self):
        w = WorkloadParams(N=5, p=0.3, a=0)
        groups = deviation_groups(w, Deviation.READ)
        assert len(groups) == 1


class TestChainStructure:
    def test_transition_probabilities_sum_to_one(self):
        w = WorkloadParams(N=4, p=0.25, a=3, sigma=0.15)
        for name in ALL:
            initial, transitions = build_chain(name, w, Deviation.READ)
            # walk a few states and check each row is a distribution
            seen = {initial}
            frontier = [initial]
            for _ in range(4):
                nxt = []
                for s in frontier:
                    out = transitions(s)
                    assert sum(p for p, _c, _t in out) == pytest.approx(1.0)
                    assert all(c >= 0 for _p, c, _t in out)
                    for _p, _c, t in out:
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
                frontier = nxt

    def test_state_spaces_are_small(self):
        from repro.core.markov import enumerate_chain
        w = WorkloadParams(N=50, p=0.2, a=10, sigma=0.05, xi=0.05, beta=10,
                           S=5000, P=30)
        for name in ALL:
            for dev in Deviation:
                initial, transitions = build_chain(name, w, dev)
                states, _ = enumerate_chain(initial, transitions)
                assert len(states) < 2000, (name, dev, len(states))


class TestMarkovAcc:
    def test_zero_write_probability_zero_cost(self, deviation):
        """Section 5.1: with no writes anywhere, every protocol is free.

        (Under write disturbance "no writes" additionally requires
        ``xi = 0`` — the disturbers are writers there.)
        """
        w = WorkloadParams(N=5, p=0.0, a=2, sigma=0.2, xi=0.0, beta=3)
        for name in ALL:
            assert markov_acc(name, w, deviation) == pytest.approx(0.0), name

    def test_ideal_workload_formulas(self):
        """Section 5.1: ideal workload (sigma = 0) anchors."""
        w = WorkloadParams(N=7, p=0.4, a=0, S=200, P=25)
        S, P, N, p = w.S, w.P, w.N, w.p
        expect = {
            "write_through": p * ((1 - p) * (S + 2) + P + N),
            "write_through_v": p * (P + N + 2),
            "write_once": 0.0,
            "synapse": 0.0,
            "illinois": 0.0,
            "berkeley": 0.0,
            "dragon": p * N * (P + 1),
            "firefly": p * (N * (P + 1) + 1),
        }
        for name, val in expect.items():
            assert markov_acc(name, w, Deviation.READ) == pytest.approx(
                val, abs=1e-10
            ), name

    def test_acc_nonnegative_random_points(self, rng):
        from tests.conftest import random_feasible_params
        for _ in range(10):
            w = random_feasible_params(rng)
            for name in ALL:
                for dev in Deviation:
                    assert markov_acc(name, w, dev) >= -1e-12

    def test_write_through_matches_paper_eqn3(self):
        w = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2, S=100, P=30)
        r = 1 - w.p - w.a * w.sigma
        paper = (
            (w.p * r / (1 - w.a * w.sigma)
             + w.a * w.sigma * w.p / (w.p + w.sigma)) * (w.S + 2)
            + w.p * (w.P + w.N)
        )
        assert markov_acc("write_through", w, Deviation.READ) == pytest.approx(
            paper, rel=1e-12
        )

    def test_disturbance_cap_at_p0_costs_nothing(self):
        """One ulp below the cap the activity center keeps a read rate of
        ~1e-16; once every copy is VALID nothing costs anything."""
        w = WorkloadParams(N=4, p=0.0, a=4, sigma=0.25 * (1 - 2.0 ** -53))
        assert 1.0 - w.p - w.a * w.sigma > 0.0
        for name in ALL:
            assert markov_acc(name, w, Deviation.READ) == 0.0, name

    def test_quorum_protocol_has_no_chain(self):
        w = WorkloadParams(N=3, p=0.3, a=1, sigma=0.1)
        with pytest.raises(KeyError):
            markov_acc("sc_abd", w, Deviation.READ)

    def test_monotone_in_sigma_for_berkeley(self):
        """More read disturbance cannot reduce Berkeley's cost."""
        base = WorkloadParams(N=10, p=0.3, a=4, S=100, P=30)
        vals = [
            markov_acc("berkeley", base.with_(sigma=s), Deviation.READ)
            for s in (0.0, 0.05, 0.1, 0.15)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
