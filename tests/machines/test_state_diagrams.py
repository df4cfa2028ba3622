"""Appendix A reproduced: every state-diagram edge executed on the simulator.

The paper's appendix gives, for every protocol, the state-transition
diagram of a client's copy and the sequencer copy's state set ("only the
operations that change the states of the copies are presented").  The
diagrams, as reconstructed in DESIGN.md, are transcribed here as plain
literals.  For each protocol and each labeled edge ``(state, trigger,
next_state)`` of the client-copy diagram, the test drives a fresh system
so client 1's copy is in ``state``, applies the trigger and asserts the
copy lands in ``next_state`` — turning the appendix figures into
executable specifications of the operational protocols.

Edge labels: ``r``/``w`` read/write by this copy's node, ``or``/``ow``
read/write by another node, ``ej`` eject by this copy's node (Section 6
extension).
"""

from typing import NamedTuple

import pytest

from repro.protocols import PROTOCOLS, get_protocol
from repro.sim import DSMSystem

N = 3


class Edge(NamedTuple):
    """One labeled transition of a copy's state diagram."""

    src: str
    label: str
    dst: str


class StateDiagram(NamedTuple):
    """A client copy's state-transition diagram (one appendix figure)."""

    states: tuple
    start: str
    edges: tuple


def _d(states, start, edges):
    return StateDiagram(tuple(states), start,
                        tuple(Edge(*edge) for edge in edges))


#: Client-copy diagrams (appendix Figures 1, 7, 9-12), including the
#: self-loops the paper omits ("only the operations that change the
#: states ... are presented") so every (state, trigger) pair is covered.
CLIENT_DIAGRAMS = {
    # Figure 1: Write-Through
    "write_through": _d(
        ["INVALID", "VALID"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "INVALID"),   # write-through, no allocate
            ("INVALID", "ow", "INVALID"),
            ("INVALID", "ej", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "INVALID"),     # the distributed-WT signature
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
        ],
    ),
    # Figure 9: Write-Through-V
    "write_through_v": _d(
        ["INVALID", "VALID"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "VALID"),     # the writer keeps its copy
            ("INVALID", "ow", "INVALID"),
            ("INVALID", "ej", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "VALID"),
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
        ],
    ),
    # Figure 10: Write-Once
    "write_once": _d(
        ["INVALID", "VALID", "RESERVED", "DIRTY"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "DIRTY"),     # read-with-intent-to-modify
            ("INVALID", "ow", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "RESERVED"),    # first write: written through
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
            ("RESERVED", "r", "RESERVED"),
            ("RESERVED", "w", "DIRTY"),    # second write: local
            ("RESERVED", "or", "VALID"),   # another node read: downgrade
            ("RESERVED", "ow", "INVALID"),
            ("RESERVED", "ej", "INVALID"),
            ("DIRTY", "r", "DIRTY"),
            ("DIRTY", "w", "DIRTY"),
            ("DIRTY", "or", "VALID"),      # recall: supply, stay valid
            ("DIRTY", "ow", "INVALID"),
            ("DIRTY", "ej", "INVALID"),    # write back, then drop
        ],
    ),
    # Figure 7: Synapse
    "synapse": _d(
        ["INVALID", "VALID", "DIRTY"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "DIRTY"),
            ("INVALID", "ow", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "DIRTY"),       # hit treated as miss, with data
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
            ("DIRTY", "r", "DIRTY"),
            ("DIRTY", "w", "DIRTY"),
            ("DIRTY", "or", "INVALID"),    # recall: self-invalidate
            ("DIRTY", "ow", "INVALID"),
            ("DIRTY", "ej", "INVALID"),
        ],
    ),
    # Illinois: same shape as Synapse except the recall keeps the supplier
    "illinois": _d(
        ["INVALID", "VALID", "DIRTY"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "DIRTY"),
            ("INVALID", "ow", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "DIRTY"),       # data-less upgrade
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
            ("DIRTY", "r", "DIRTY"),
            ("DIRTY", "w", "DIRTY"),
            ("DIRTY", "or", "VALID"),      # the Illinois difference
            ("DIRTY", "ow", "INVALID"),
            ("DIRTY", "ej", "INVALID"),
        ],
    ),
    # Figure 12: Berkeley (owner states included: the role migrates)
    "berkeley": _d(
        ["INVALID", "VALID", "DIRTY", "SHARED-DIRTY"], "INVALID",
        [
            ("INVALID", "r", "VALID"),
            ("INVALID", "w", "DIRTY"),     # ownership transfer with data
            ("INVALID", "ow", "INVALID"),
            ("VALID", "r", "VALID"),
            ("VALID", "w", "DIRTY"),       # ownership transfer, no data
            ("VALID", "ow", "INVALID"),
            ("VALID", "ej", "INVALID"),
            ("DIRTY", "r", "DIRTY"),
            ("DIRTY", "w", "DIRTY"),
            ("DIRTY", "or", "SHARED-DIRTY"),
            ("DIRTY", "ow", "INVALID"),    # ownership taken away
            ("DIRTY", "ej", "DIRTY"),      # pinned: the backing store
            ("SHARED-DIRTY", "r", "SHARED-DIRTY"),
            ("SHARED-DIRTY", "w", "DIRTY"),
            ("SHARED-DIRTY", "or", "SHARED-DIRTY"),
            ("SHARED-DIRTY", "ow", "INVALID"),
            ("SHARED-DIRTY", "ej", "SHARED-DIRTY"),  # pinned
        ],
    ),
    # Figure 11: Dragon (single client state; INVALID only via ejects)
    "dragon": _d(
        ["SHARED-CLEAN", "SHARED-DIRTY", "INVALID"],
        "SHARED-CLEAN",
        [
            ("SHARED-CLEAN", "r", "SHARED-CLEAN"),
            ("SHARED-CLEAN", "w", "SHARED-DIRTY"),
            ("SHARED-CLEAN", "ow", "SHARED-CLEAN"),  # update applies
            ("SHARED-CLEAN", "ej", "INVALID"),
            ("SHARED-DIRTY", "r", "SHARED-DIRTY"),
            ("SHARED-DIRTY", "w", "SHARED-DIRTY"),
            ("SHARED-DIRTY", "ow", "SHARED-CLEAN"),  # role moved on
            ("SHARED-DIRTY", "ej", "SHARED-DIRTY"),  # pinned
            ("INVALID", "r", "SHARED-CLEAN"),
            ("INVALID", "w", "SHARED-DIRTY"),
            ("INVALID", "ow", "INVALID"),
            ("INVALID", "ej", "INVALID"),
        ],
    ),
    # Firefly (single client state; INVALID only via ejects)
    "firefly": _d(
        ["SHARED", "INVALID"], "SHARED",
        [
            ("SHARED", "r", "SHARED"),
            ("SHARED", "w", "SHARED"),
            ("SHARED", "ow", "SHARED"),
            ("SHARED", "ej", "INVALID"),
            ("INVALID", "r", "SHARED"),
            ("INVALID", "w", "SHARED"),
            ("INVALID", "ow", "INVALID"),
            ("INVALID", "ej", "INVALID"),
        ],
    ),
}

#: The sequencer copy's state set per protocol (appendix Figures 8 etc.).
SEQUENCER_STATES = {
    "write_through": ("VALID",),
    "write_through_v": ("VALID",),
    "write_once": ("VALID", "INVALID"),
    "synapse": ("VALID", "INVALID"),
    "illinois": ("VALID", "INVALID"),
    "berkeley": ("DIRTY", "SHARED-DIRTY"),
    "dragon": ("SHARED-DIRTY",),
    "firefly": ("VALID",),
}

#: operation sequences that drive client 1's copy into each state
_RECIPES = {
    "write_through": {"INVALID": [], "VALID": [(1, "read")]},
    "write_through_v": {"INVALID": [], "VALID": [(1, "read")]},
    "write_once": {
        "INVALID": [],
        "VALID": [(1, "read")],
        "RESERVED": [(1, "read"), (1, "write")],
        "DIRTY": [(1, "write")],
    },
    "synapse": {
        "INVALID": [],
        "VALID": [(1, "read")],
        "DIRTY": [(1, "write")],
    },
    "illinois": {
        "INVALID": [],
        "VALID": [(1, "read")],
        "DIRTY": [(1, "write")],
    },
    "berkeley": {
        "INVALID": [],
        "VALID": [(1, "read")],
        "DIRTY": [(1, "write")],
        "SHARED-DIRTY": [(1, "write"), (2, "read")],
    },
    "dragon": {
        "SHARED-CLEAN": [],
        "SHARED-DIRTY": [(1, "write")],
        "INVALID": [(1, "eject")],
    },
    "firefly": {
        "SHARED": [],
        "INVALID": [(1, "eject")],
    },
}

#: trigger label -> the operation that realizes it
_TRIGGERS = {
    "r": (1, "read"),
    "w": (1, "write"),
    "ej": (1, "eject"),
    "or": (2, "read"),
    "ow": (2, "write"),
}


def _all_edges():
    for proto, diagram in CLIENT_DIAGRAMS.items():
        for edge in diagram.edges:
            yield pytest.param(proto, edge,
                               id=f"{proto}:{edge.src}-{edge.label}")


class TestDiagramStructure:
    @pytest.mark.parametrize("protocol", sorted(CLIENT_DIAGRAMS))
    def test_deterministic(self, protocol):
        """At most one edge per (state, trigger)."""
        d = CLIENT_DIAGRAMS[protocol]
        seen = set()
        for e in d.edges:
            key = (e.src, e.label)
            assert key not in seen, key
            seen.add(key)
            assert e.src in d.states and e.dst in d.states

    @pytest.mark.parametrize("protocol", sorted(CLIENT_DIAGRAMS))
    def test_all_states_reachable(self, protocol):
        d = CLIENT_DIAGRAMS[protocol]
        seen, frontier = {d.start}, [d.start]
        while frontier:
            state = frontier.pop()
            for e in d.edges:
                if e.src == state and e.dst not in seen:
                    seen.add(e.dst)
                    frontier.append(e.dst)
        assert seen == set(d.states)

    @pytest.mark.parametrize("protocol", sorted(CLIENT_DIAGRAMS))
    def test_start_state_matches_simulator(self, protocol):
        d = CLIENT_DIAGRAMS[protocol]
        system = DSMSystem(protocol, N=N, M=1, S=50, P=10)
        assert system.copy_state(1) == d.start

    @pytest.mark.parametrize("protocol", sorted(SEQUENCER_STATES))
    def test_sequencer_states_match_spec(self, protocol):
        spec = get_protocol(protocol)
        assert set(SEQUENCER_STATES[protocol]) == set(spec.sequencer_states)

    @pytest.mark.parametrize("protocol", sorted(CLIENT_DIAGRAMS))
    def test_paper_client_states_covered(self, protocol):
        """Every client state the paper's spec lists appears (the eject
        extension may add INVALID to the update protocols)."""
        spec = PROTOCOLS[protocol]
        diagram_states = set(CLIENT_DIAGRAMS[protocol].states)
        assert set(spec.client_states) <= diagram_states | {
            "DIRTY", "SHARED-DIRTY"
        }


class TestEdgesExecutable:
    @pytest.mark.parametrize("protocol,edge", list(_all_edges()))
    def test_edge(self, protocol, edge):
        system = DSMSystem(protocol, N=N, M=1, S=50, P=10)
        for node, kind in _RECIPES[protocol][edge.src]:
            system.submit(node, kind)
            system.settle()
        assert system.copy_state(1) == edge.src, "recipe failed"
        node, kind = _TRIGGERS[edge.label]
        system.submit(node, kind)
        system.settle()
        assert system.copy_state(1) == edge.dst, (
            f"{protocol}: {edge.src} --{edge.label}--> expected {edge.dst}, "
            f"got {system.copy_state(1)}"
        )
        system.check_coherence()
