"""Closed forms vs the exact Markov evaluation, plus the paper's identities.

This is the central analytic cross-check: every closed form must agree with
the independent Markov-chain evaluation to numerical precision across random
feasible parameter draws (property-based), and the Write-Through trace
probabilities must form a simplex and reproduce eqns. (3)-(5).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.chains import markov_acc
from repro.core.closed_forms import (
    acc_dragon,
    acc_firefly,
    acc_write_through_mac,
    acc_write_through_rd,
    acc_write_through_wd,
    closed_form_acc,
    has_closed_form,
    ideal_acc,
    write_through_trace_probabilities,
)
from repro.core.parameters import Deviation, WorkloadParams

CLOSED = [
    (proto, dev)
    for proto in ["write_through", "write_through_v", "write_once", "synapse",
                  "illinois", "berkeley", "dragon", "firefly"]
    for dev in Deviation
    if has_closed_form(proto, dev)
]


def draw_params(p, frac_sigma, frac_xi, N, a, S, P, beta):
    a = min(a, N)
    beta = min(beta, N)
    # snap physically-meaningless tiny probabilities to zero: the closed
    # forms handle them analytically, but a dense stationary solve with
    # transition masses of order 1e-45 is hopelessly ill-conditioned.
    if p < 1e-9:
        p = 0.0
    cap = (1.0 - p) / a if a else 0.0
    sigma = cap * frac_sigma
    xi = cap * frac_xi
    if sigma < 1e-9:
        sigma = 0.0
    if xi < 1e-9:
        xi = 0.0
    return WorkloadParams(
        N=N, p=p, a=a, sigma=sigma, xi=xi,
        beta=beta, S=S, P=P,
    )


class TestClosedFormsEqualMarkov:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        fs=st.floats(0.0, 1.0),
        fx=st.floats(0.0, 1.0),
        N=st.integers(2, 30),
        a=st.integers(0, 6),
        S=st.floats(0.0, 3000.0),
        P=st.floats(0.0, 60.0),
        beta=st.integers(1, 6),
    )
    # a disturbance fraction one ulp below its cap at p = 0 leaves the
    # activity center a read rate of ~1e-16: the chain's start-up states
    # then drain at a rate of the order of round-off
    @example(
        p=0.0, fs=1.0 - 2.0 ** -53, fx=0.0, N=4, a=4, S=0.0, P=0.0, beta=1,
    )
    @example(
        p=0.0, fs=0.0, fx=1.0 - 2.0 ** -53, N=4, a=4, S=0.0, P=0.0, beta=1,
    )
    def test_property_all_closed_forms(self, p, fs, fx, N, a, S, P, beta):
        w = draw_params(p, fs, fx, N, a, S, P, beta)
        for proto, dev in CLOSED:
            m = markov_acc(proto, w, dev)
            c = closed_form_acc(proto, w, dev)
            assert c == pytest.approx(m, rel=1e-8, abs=1e-8), (proto, dev)

    def test_missing_closed_form_raises(self):
        w = WorkloadParams(N=3, p=0.1, a=1, sigma=0.1)
        with pytest.raises(KeyError):
            closed_form_acc("write_once", w, Deviation.READ)

    def test_coverage_of_table6_row_set(self):
        """All 8 protocols have a read-disturbance evaluation; 7 in closed
        form (Write-Once is Markov-only under our reconstruction)."""
        rd_closed = {p for (p, d) in CLOSED if d is Deviation.READ}
        assert rd_closed == {
            "write_through", "write_through_v", "synapse", "illinois",
            "berkeley", "dragon", "firefly",
        }


class TestWriteThroughPaperFormulas:
    """Eqns. (3), (4), (5) evaluated directly."""

    def test_eqn3_known_value(self):
        # hand-computed: p=0.3, sigma=0.2, a=2, S=100, P=30, N=3
        # r = 1 - 0.3 - 0.4 = 0.3
        # term = 0.3*0.3/0.6 + 2*0.2*0.3/0.5 = 0.15 + 0.24 = 0.39
        # acc = 0.39*102 + 0.3*33 = 39.78 + 9.9 = 49.68
        acc = acc_write_through_rd(0.3, 0.2, 2, 100, 30, 3)
        assert acc == pytest.approx(49.68)

    def test_eqn4_known_value(self):
        # w = p + a*xi = 0.5; acc = 0.5*0.5*102 + 0.5*33 = 42.0
        acc = acc_write_through_wd(0.3, 0.1, 2, 100, 30, 3)
        assert acc == pytest.approx(42.0)

    def test_eqn5_reduces_to_ideal_at_beta1(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            mac = acc_write_through_mac(p, 1, 100, 30, 3)
            ideal = ideal_acc("write_through", p, 100, 30, 3)
            assert mac == pytest.approx(ideal)

    def test_eqn3_reduces_to_ideal_at_sigma0(self):
        for p in (0.0, 0.3, 1.0):
            rd = acc_write_through_rd(p, 0.0, 2, 100, 30, 3)
            ideal = ideal_acc("write_through", p, 100, 30, 3)
            assert rd == pytest.approx(ideal)

    def test_vectorized_evaluation(self):
        p = np.linspace(0, 0.5, 6)
        acc = acc_write_through_rd(p, 0.1, 2, 100, 30, 3)
        assert acc.shape == p.shape
        assert np.all(np.isfinite(acc))


class TestTraceProbabilities:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        fs=st.floats(0.0, 1.0),
        N=st.integers(2, 20),
        a=st.integers(0, 5),
        beta=st.integers(1, 5),
    )
    def test_property_simplex_all_deviations(self, p, fs, N, a, beta):
        w = draw_params(p, fs, fs, N, a, 100.0, 30.0, beta)
        for dev in Deviation:
            pi = write_through_trace_probabilities(w, dev)
            assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= -1e-12 for v in pi.values())

    def test_probabilities_reproduce_eqn3(self):
        w = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2, S=100, P=30)
        pi = write_through_trace_probabilities(w, Deviation.READ)
        acc = (pi["tr2"] * (w.S + 2)
               + (pi["tr3"] + pi["tr4"]) * (w.P + w.N))
        assert acc == pytest.approx(
            acc_write_through_rd(w.p, w.sigma, w.a, w.S, w.P, w.N)
        )

    def test_write_mass_equals_write_probability_rd(self):
        """pi3 + pi4 = p: every activity-center write costs P + N."""
        w = WorkloadParams(N=3, p=0.35, a=2, sigma=0.15, S=100, P=30)
        pi = write_through_trace_probabilities(w, Deviation.READ)
        assert pi["tr3"] + pi["tr4"] == pytest.approx(w.p)

    def test_write_mass_wd(self):
        """pi3 + pi4 = p + a*xi under write disturbance."""
        w = WorkloadParams(N=3, p=0.3, a=2, xi=0.1, S=100, P=30)
        pi = write_through_trace_probabilities(w, Deviation.WRITE)
        assert pi["tr3"] + pi["tr4"] == pytest.approx(0.5)


class TestIdealAcc:
    def test_local_write_protocols_zero(self):
        for proto in ("write_once", "synapse", "illinois", "berkeley"):
            assert ideal_acc(proto, 0.7, 100, 30, 5) == 0.0

    def test_dragon_firefly(self):
        assert ideal_acc("dragon", 0.5, 100, 30, 4) == pytest.approx(62.0)
        assert ideal_acc("firefly", 0.5, 100, 30, 4) == pytest.approx(62.5)

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            ideal_acc("mesi", 0.5, 100, 30, 4)

    def test_update_protocol_helpers_wd(self):
        assert acc_dragon(0.2, 0.1, 2, 100, 30, 4, Deviation.WRITE) == \
            pytest.approx(0.4 * 4 * 31)
        assert acc_firefly(0.2, 0.1, 2, 100, 30, 4, Deviation.WRITE) == \
            pytest.approx(0.4 * (4 * 31 + 1))
