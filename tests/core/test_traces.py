"""Traces and their communication costs (paper Section 4.1).

A message costs ``1``, ``S + 1`` or ``P + 1`` by what rides along with its
token (:func:`repro.core.chains.price`); a trace's cost ``cc_h`` is the
sum of its messages'; symbolic costs are affine in ``S``, ``P`` and ``N``
(:class:`repro.core.trace_discovery.TraceClass`); and ``acc`` is eqn. (1),
``sum_h pi_h * cc_h``, which the Markov engine evaluates.  Figures 2-4's
six Write-Through traces are read off the running protocol.
"""

import pytest

from repro.core.chains import extract_transitions, price
from repro.core.markov import solve_chain
from repro.core.trace_discovery import TraceClass, discover_traces

S, P = 100.0, 30.0
#: the sequencer and one client, both reading and writing
HOME_AND_CLIENT = ((1, ("read", "write")), (1, ("read", "write")))


class TestCostExpr:
    def test_token_cost(self):
        assert price((1, 0, 0), S, P) == 1.0

    def test_ui_cost(self):
        assert price((0, 1, 0), S, P) == 101.0

    def test_params_cost(self):
        assert price((0, 0, 1), S, P) == 31.0

    def test_broadcast_cost(self):
        # (N - 1) invalidations
        assert TraceClass("write", -1, 0, 0, 1, 0).cost(S, P, 5) == 4.0

    def test_update_broadcast_cost(self):
        # N * (P + 1), the Dragon write
        assert TraceClass("write", 0, 0, 0, 1, 1).cost(S, P, 5) == 5 * 31.0

    def test_addition(self):
        # a trace costs the sum of its messages
        assert price((1, 1, 0), S, P) == (price((1, 0, 0), S, P)
                                          + price((0, 1, 0), S, P)) == 102.0

    def test_describe_mentions_terms(self):
        # (P + 1) + (N - 1) = P + N
        assert TraceClass("write", 0, 0, 1, 1, 0).describe() == "P + N"

    def test_describe_zero(self):
        assert TraceClass("read", 0, 0, 0, 0, 0).describe() == "0"


#: Figures 2-4: trace -> (actor group, copy state, kind, cc at N);
#: group 0 is the sequencer, group 1 a client
FIGURE_TRACES = {
    "tr1": (1, "VALID", "read", lambda N: 0.0),
    "tr2": (1, "INVALID", "read", lambda N: S + 2),
    "tr3": (1, "VALID", "write", lambda N: P + N),
    "tr4": (1, "INVALID", "write", lambda N: P + N),
    "tr5": (0, "VALID", "read", lambda N: 0.0),
    "tr6": (0, "VALID", "write", lambda N: float(N)),
}


def trace_costs(N):
    """(actor group, copy state, kind) -> its extracted costs at ``N``."""
    table = extract_transitions("write_through", N, HOME_AND_CLIENT,
                                home=True).table
    out = {}
    for steps in table.values():
        for g, s, _c, kind, units, _nxt in steps:
            out.setdefault((g, s, kind), set()).add(price(units, S, P))
    return out


class TestWriteThroughTraces:
    """The paper's six Write-Through traces, at two system sizes."""

    def check(self, name):
        group, state, kind, cc = FIGURE_TRACES[name]
        for N in (3, 7):
            assert trace_costs(N)[group, state, kind] == {cc(N)}

    def test_six_traces(self):
        assert set(trace_costs(3)) == {t[:3] for t in FIGURE_TRACES.values()}

    def test_tr1_local(self):
        self.check("tr1")

    def test_tr2_read_miss(self):
        self.check("tr2")  # paper: cc2 = S + 2

    def test_tr3_tr4_writes(self):
        self.check("tr3")  # paper: cc3 = P + N
        self.check("tr4")  # paper: cc4 = cc3

    def test_tr5_sequencer_read(self):
        self.check("tr5")

    def test_tr6_sequencer_write(self):
        self.check("tr6")  # paper: cc6 = N


def single_state(*trials):
    """A one-state chain whose trials are ``(pi_h, cc_h)`` pairs."""
    return lambda _state: [(pi, cc, 0) for pi, cc in trials]


class TestTraceSet:
    def test_average_cost_eqn1(self):
        # acc = sum pi_h cc_h with the paper's Write-Through costs
        chain = single_state((0.4, 0.0), (0.3, 102.0), (0.2, 35.0),
                             (0.1, 35.0))
        assert solve_chain(0, chain) == pytest.approx(0.3 * 102 + 0.3 * 35)

    def test_average_cost_rejects_bad_simplex(self):
        with pytest.raises(ValueError):
            solve_chain(0, single_state((0.5, 0.0)))

    def test_average_cost_rejects_unknown_trace(self):
        extraction = extract_transitions("write_through", 3,
                                         HOME_AND_CLIENT, home=True)
        with pytest.raises(KeyError):
            extraction.step(extraction.initial, 1, "INVALID", "eject")

    def test_average_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            solve_chain(0, single_state((1.5, 0.0), (-0.5, 0.0)))

    def test_contains_and_iteration(self):
        traces = discover_traces("write_through")
        assert {t.kind for t in traces} == {"read", "write"}
        assert {t.describe() for t in traces} == {"0", "S + 2", "P + N"}
