"""Unit tests for the generic Markov engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.markov import (
    enumerate_chain,
    solve_chain,
    stationary_distribution,
)


def two_state_chain(q01=0.3, q10=0.2, cost01=5.0, cost10=1.0):
    """A simple two-state chain with analytically known stationary law."""

    def transitions(s):
        if s == 0:
            return [(q01, cost01, 1), (1 - q01, 0.0, 0)]
        return [(q10, cost10, 0), (1 - q10, 0.0, 1)]

    return transitions


class TestEnumeration:
    def test_enumerates_reachable_only(self):
        def transitions(s):
            return [(1.0, 0.0, min(s + 1, 3))]

        states, index = enumerate_chain(0, transitions)
        assert states == [0, 1, 2, 3]
        assert index[2] == 2

    def test_cap_raises(self):
        def transitions(s):
            return [(1.0, 0.0, s + 1)]

        with pytest.raises(RuntimeError):
            enumerate_chain(0, transitions, max_states=10)


class TestStationary:
    def test_two_state_exact(self):
        tr = two_state_chain()
        states, index = enumerate_chain(0, tr)
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        pi = stationary_distribution(P)
        assert pi == pytest.approx([0.4, 0.6])

    def test_absorbing_chain(self):
        # transient 0 -> absorbing 1: all stationary mass on 1
        def tr(s):
            if s == 0:
                return [(1.0, 2.0, 1)]
            return [(1.0, 0.0, 1)]

        assert solve_chain(0, tr) == pytest.approx(0.0)

    def test_periodic_chain(self):
        # deterministic 2-cycle: pi = (1/2, 1/2); cost alternates 4 and 0
        def tr(s):
            return [(1.0, 4.0 if s == 0 else 0.0, 1 - s)]

        assert solve_chain(0, tr) == pytest.approx(2.0)

    def test_split_chain_weights_classes_reached_from_start(self):
        # 0 -> {1} or {2, 3}: two closed classes, reached 1/4 and 3/4
        P = np.array([[0.0, 0.25, 0.75, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0, 0.0]])
        assert stationary_distribution(P) == pytest.approx(
            [0.0, 0.25, 0.375, 0.375])

    def test_bad_row_sum_rejected(self):
        def tr(s):
            return [(0.5, 0.0, s)]

        with pytest.raises(ValueError):
            solve_chain(0, tr)

    def test_negative_probability_rejected(self):
        def tr(s):
            return [(-0.5, 0.0, s), (1.5, 0.0, s)]

        with pytest.raises(ValueError):
            solve_chain(0, tr)


class TestExpectedCost:
    def test_two_state_cost(self):
        tr = two_state_chain(q01=0.3, q10=0.2, cost01=5.0, cost10=1.0)
        # pi = (0.4, 0.6); acc = 0.4*0.3*5 + 0.6*0.2*1 = 0.72
        assert solve_chain(0, tr) == pytest.approx(0.72)

    @settings(max_examples=30, deadline=None)
    @given(
        q01=st.floats(0.05, 0.95),
        q10=st.floats(0.05, 0.95),
        c01=st.floats(0.0, 100.0),
        c10=st.floats(0.0, 100.0),
    )
    def test_property_two_state_closed_form(self, q01, q10, c01, c10):
        """Engine output equals the textbook two-state formula."""
        tr = two_state_chain(q01, q10, c01, c10)
        pi0 = q10 / (q01 + q10)
        expected = pi0 * q01 * c01 + (1 - pi0) * q10 * c10
        assert solve_chain(0, tr) == pytest.approx(expected, rel=1e-9)

    def test_expected_cost_skips_zero_mass(self):
        def tr(s):
            if s == 0:
                return [(1.0, 1000.0, 1)]  # transient, must not contribute
            return [(1.0, 3.0, 1)]

        assert solve_chain(0, tr) == pytest.approx(3.0)
