"""Property-based check of the explorer's abstraction (hypothesis).

The analytic chains are extracted from the running protocols
(:func:`repro.core.chains.extract_transitions`): each reduced state is
explored once, through whichever members first reached it, on a system
where a single client stands for every client that never acts.  The
chains are exact only if the reduced state — per-group counts of copy
states plus the sequencer's copy state — determines everything else, and
if every idle client sees the same traffic.  Here random scripts of
reads, writes and ejects by *arbitrary* group members, plus operations
by the home node itself, reach states along arbitrary paths on a system
with three idle clients; after every operation the simulator's per-op
cost and reduced successor must equal the extracted table's entry.
Hypothesis shrinks counterexamples to minimal traces.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.chains import extract_transitions, price
from repro.sim import DSMSystem
from tests.conftest import ALL_PROTOCOLS

N = 6
S, P = 100.0, 30.0
#: the home node (group 0), two symmetric clients and one more client
#: (each acting alone); clients 4-6 never act
LAYOUT = ((1, ("read", "write")),
          (2, ("read", "write", "eject")),
          (1, ("read", "write", "eject")))
MEMBERS = ((N + 1,), (1, 2), (3,))
IDLE = (4, 5, 6)

script = st.lists(
    st.tuples(
        st.integers(0, len(LAYOUT) - 1),
        st.integers(0, 1),  # which member of the group acts
        st.sampled_from(["read", "write", "eject"]),
    ),
    min_size=1,
    max_size=25,
)

PROTOCOLS = ALL_PROTOCOLS + ["write_through_dir"]


def reduced(system):
    """The simulator's reduced state, with order-free group counts."""
    groups = []
    for nodes in MEMBERS:
        counts = {}
        for n in nodes:
            s = system.copy_state(n)
            counts[s] = counts.get(s, 0) + 1
        groups.append(counts)
    # the idle clients stay alike: one of them stands for all
    (idle,) = {system.copy_state(n) for n in IDLE}
    groups.append({idle: 1})
    return groups, system.copy_state(N + 1)


def as_counts(state):
    return [dict(counts) for counts in state[0]], state[1]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=script)
def test_property_sim_equals_kernel(protocol, ops):
    extraction = extract_transitions(protocol, N, LAYOUT, home=True)
    system = DSMSystem(protocol, N=N, M=1, S=S, P=P)
    state = extraction.initial
    assert as_counts(state) == reduced(system)
    for g, pick, kind in ops:
        if kind not in LAYOUT[g][1]:
            continue
        node = MEMBERS[g][pick % len(MEMBERS[g])]
        member = system.copy_state(node)
        units, state = extraction.step(state, g, member, kind)
        op = system.submit(node, kind)
        system.settle()
        assert system.metrics.op(op.op_id).cost == price(units, S, P), (
            protocol, node, kind)
        assert as_counts(state) == reduced(system), (protocol, node, kind)
    system.check_coherence()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(st.integers(1, N),
                              st.sampled_from(["read", "write", "eject"])),
                    min_size=1, max_size=25))
def test_property_costs_are_replayable(protocol, ops):
    """Two fresh systems executing the same script charge identical costs
    (the simulator is deterministic)."""
    from tests.protocols.util import run_scripted

    _s1, costs1 = run_scripted(protocol, N, ops)
    _s2, costs2 = run_scripted(protocol, N, ops)
    assert costs1 == costs2
