"""Property-based invariants of the extracted chains (hypothesis).

Random operation walks through every protocol's extracted transitions
must preserve the structural invariants the protocols guarantee: member
conservation, single ownership, home/owner consistency, cost bounds, and
agreement between repeated extraction (purity).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import chains
from repro.core.chains import KINDS, extract_transitions, price
from repro.protocols import PROTOCOLS

ALL = list(PROTOCOLS) + ["write_through_dir"]
S, P, N = 100.0, 30.0, 6
GROUP_SIZES = (1, 3)
LAYOUT = tuple((n, KINDS) for n in GROUP_SIZES)

#: states that mark the (unique) client-side owner of the object
OWNER_STATES = {
    "write_once": {"DIRTY"},
    "synapse": {"DIRTY"},
    "illinois": {"DIRTY"},
    "berkeley": {"DIRTY", "SHARED-DIRTY"},
    "dragon": {"SHARED-DIRTY"},
}

#: a second, uncached extraction per protocol (built on first use)
_REEXTRACTED = {}


def walk_strategy():
    """A random walk: each step picks an actor group and an op kind."""
    step = st.tuples(
        st.integers(0, len(GROUP_SIZES) - 1),
        st.sampled_from(["read", "write", "eject"]),
    )
    return st.lists(step, min_size=1, max_size=40)


def apply_walk(extraction, walk):
    """Execute a walk; returns visited (cost, state) pairs."""
    state = extraction.initial
    visited = []
    for g, kind in walk:
        # act through the first populated member state (deterministic)
        member = state[0][g][0][0]
        units, state = extraction.step(state, g, member, kind)
        visited.append((price(units, S, P), state))
    return visited


def count(state, states):
    """Actors whose copy state is in ``states``."""
    return sum(c for counts in state[0][:len(GROUP_SIZES)]
               for s, c in counts if s in states)


@pytest.mark.parametrize("protocol", ALL)
@settings(max_examples=30, deadline=None)
@given(walk=walk_strategy())
def test_property_kernel_invariants(protocol, walk):
    visited = apply_walk(extract_transitions(protocol, N, LAYOUT), walk)
    max_cost = 2 * S + N + 5  # the most expensive trace anywhere
    dragon_bound = N * (P + 1) + S + 2
    for cost, state in visited:
        groups, home = state
        # (1) members are conserved per group
        for g, size in enumerate(GROUP_SIZES):
            assert sum(c for _s, c in groups[g]) == size
            assert all(c > 0 for _s, c in groups[g])
        # (2) costs are bounded by the protocol's worst trace
        assert 0.0 <= cost <= max(max_cost, dragon_bound) + 1e-9
        # (3) at most one client-side owner copy
        own = OWNER_STATES.get(protocol)
        if own:
            assert count(state, own) <= 1
        # (4) home/owner consistency
        if protocol in ("synapse", "illinois", "write_once"):
            dirty = count(state, {"DIRTY"})
            if home == "INVALID":
                assert dirty == 1  # sequencer invalid <=> a dirty owner
            else:
                assert dirty == 0
        if protocol in ("berkeley", "dragon"):
            client_owner = count(state, OWNER_STATES[protocol])
            home_owner = home in OWNER_STATES[protocol]
            if home_owner:  # the initial owner still owns: no client owner
                assert client_owner == 0
            elif protocol == "berkeley":
                assert client_owner == 1


@pytest.mark.parametrize("protocol", ALL)
@settings(max_examples=15, deadline=None)
@given(walk=walk_strategy())
def test_property_kernel_is_pure(protocol, walk):
    """A second, independent extraction yields identical costs and states."""
    cached = extract_transitions(protocol, N, LAYOUT)
    if protocol not in _REEXTRACTED:
        chains._explore.cache_clear()  # explore the protocol afresh
        _REEXTRACTED[protocol] = extract_transitions.__wrapped__(
            protocol, N, LAYOUT)
    assert apply_walk(cached, walk) == apply_walk(_REEXTRACTED[protocol],
                                                  walk)


@pytest.mark.parametrize("protocol", ALL)
@settings(max_examples=15, deadline=None)
@given(walk=walk_strategy())
def test_property_reads_after_read_are_free(protocol, walk):
    """Two consecutive reads by the same actor: the second is free."""
    extraction = extract_transitions(protocol, N, LAYOUT)
    state = extraction.initial
    for g, kind in walk:
        member = state[0][g][0][0]
        _units, state = extraction.step(state, g, member, kind)
    # after any history: read twice from group 0
    _u1, state = extraction.step(state, 0, state[0][0][0][0], "read")
    u2, _ = extraction.step(state, 0, state[0][0][0][0], "read")
    assert price(u2, S, P) == 0.0
