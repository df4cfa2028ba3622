"""Pinned per-operation costs of the transitions extracted for the chains.

The analytic chains are extracted from the running protocols
(:func:`repro.core.chains.extract_transitions`).  The expected costs
below are written by hand from the protocol descriptions (paper
appendix, DESIGN.md); they are the independent reference every
extraction is checked against.
"""

import pytest

from repro.core.chains import KINDS, extract_transitions, price
from repro.protocols import PROTOCOLS

S, P, N = 100.0, 30.0, 5

#: short state names used by the cases below
SHORT = {
    "I": "INVALID", "V": "VALID", "R": "RESERVED", "D": "DIRTY",
    "SD": "SHARED-DIRTY", "SC": "SHARED-CLEAN", "S": "SHARED",
}


class Chain:
    """One protocol's extracted transitions for actor groups of ``sizes``."""

    def __init__(self, protocol, sizes=(1, 2)):
        self.ex = extract_transitions(
            protocol, N, tuple((n, KINDS) for n in sizes))
        self.groups = len(sizes)

    def fresh(self):
        return self.ex.initial

    def op(self, state, g, s, kind):
        """``(cost, next state)`` of one ``kind`` by a group-``g`` member
        in state ``s``."""
        units, nxt = self.ex.step(state, g, SHORT[s], kind)
        return price(units, S, P), nxt

    def count(self, state, s, group=None):
        """Actors in state ``s`` (in one group or across all groups)."""
        groups = (state[0][:self.groups] if group is None
                  else (state[0][group],))
        return sum(dict(counts).get(SHORT[s], 0) for counts in groups)


class TestWriteThroughKernel:
    k = Chain("write_through")

    def test_read_miss_cost_and_state(self):
        cost, nxt = self.k.op(self.k.fresh(), 0, "I", "read")
        assert cost == S + 2
        assert nxt[0][0] == (("VALID", 1),)  # the AC is now VALID

    def test_read_hit_free(self):
        _, st = self.k.op(self.k.fresh(), 0, "I", "read")
        cost, _ = self.k.op(st, 0, "V", "read")
        assert cost == 0.0

    def test_write_invalidates_everyone_including_writer(self):
        _, st = self.k.op(self.k.fresh(), 0, "I", "read")
        cost, nxt = self.k.op(st, 0, "V", "write")
        assert cost == P + N
        assert nxt[0][0] == (("INVALID", 1),)  # the writer dropped its copy


class TestWriteThroughVKernel:
    k = Chain("write_through_v")

    def test_write_keeps_writer_valid(self):
        cost, nxt = self.k.op(self.k.fresh(), 0, "I", "write")
        assert cost == P + S + N + 2  # invalid writer needs ui
        assert nxt[0][0] == (("VALID", 1),)

    def test_write_from_valid_costs_two_more_than_wt(self):
        _, st = self.k.op(self.k.fresh(), 0, "I", "read")
        cost, _ = self.k.op(st, 0, "V", "write")
        assert cost == P + N + 2


class TestWriteOnceKernel:
    k = Chain("write_once")

    def test_write_sequence_v_r_d(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "read")           # fetch
        c1, st = self.k.op(st, 0, "V", "write")         # write-through
        assert c1 == P + N
        assert st[1] == "VALID"  # sequencer still current
        c2, st = self.k.op(st, 0, "R", "write")         # upgrade
        assert c2 == 2.0
        assert st[1] == "INVALID"
        c3, st = self.k.op(st, 0, "D", "write")
        assert c3 == 0.0

    def test_read_miss_pays_dgr_when_reserved_exists(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "read")
        _, st = self.k.op(st, 0, "V", "write")  # AC now RESERVED
        cost, nxt = self.k.op(st, 1, "I", "read")
        assert cost == S + 3  # S + 2 plus the DGR token
        # the reserved copy downgraded to VALID
        assert self.k.count(nxt, "R") == 0 and self.k.count(nxt, "V") == 2

    def test_remote_dirty_read_recall(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")  # RWITM -> DIRTY
        cost, nxt = self.k.op(st, 1, "I", "read")
        assert cost == 2 * S + 4
        assert nxt[1] == "VALID"
        assert self.k.count(nxt, "D") == 0  # the owner supplied, now VALID

    def test_rwitm_costs(self):
        st = self.k.fresh()
        cost, st = self.k.op(st, 0, "I", "write")
        assert cost == S + N + 1  # sequencer VALID
        cost2, _ = self.k.op(st, 1, "I", "write")
        assert cost2 == 2 * S + N + 3  # recall path


class TestSynapseKernel:
    k = Chain("synapse")

    def test_write_always_transfers_data(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "read")
        cost, st = self.k.op(st, 0, "V", "write")
        assert cost == S + N + 1  # no data-less upgrade in Synapse

    def test_remote_dirty_read_includes_retry(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")
        cost, nxt = self.k.op(st, 1, "I", "read")
        assert cost == 2 * S + 6
        # the recalled owner self-invalidated (Synapse signature)
        assert self.k.count(nxt, "D") == 0
        assert self.k.count(nxt, "I", group=0) == 1

    def test_remote_dirty_write(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")
        cost, _ = self.k.op(st, 1, "I", "write")
        assert cost == 2 * S + N + 5


class TestIllinoisKernel:
    k = Chain("illinois")

    def test_upgrade_write_is_data_less(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "read")
        cost, _ = self.k.op(st, 0, "V", "write")
        assert cost == N + 1

    def test_remote_dirty_read_keeps_supplier_valid(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")
        cost, nxt = self.k.op(st, 1, "I", "read")
        assert cost == 2 * S + 4
        assert self.k.count(nxt, "V", group=0) == 1  # supplier stays VALID


class TestBerkeleyKernel:
    k = Chain("berkeley")

    def test_first_write_takes_ownership(self):
        cost, nxt = self.k.op(self.k.fresh(), 0, "I", "write")
        assert cost == S + N + 1
        assert nxt[1] == "INVALID"  # the home copy was invalidated too
        assert self.k.count(nxt, "D", group=0) == 1

    def test_owner_write_free_then_shared_dirty_write_costs_N(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")
        cost, st = self.k.op(st, 0, "D", "write")
        assert cost == 0.0
        _, st = self.k.op(st, 1, "I", "read")  # downgrades owner to SD
        assert self.k.count(st, "SD", group=0) == 1
        cost, _ = self.k.op(st, 0, "SD", "write")
        assert cost == N

    def test_valid_writer_pays_no_data_transfer(self):
        st = self.k.fresh()
        _, st = self.k.op(st, 0, "I", "write")
        _, st = self.k.op(st, 1, "I", "read")
        cost, _ = self.k.op(st, 1, "V", "write")
        assert cost == N + 1


class TestUpdateKernels:
    def test_dragon_write_cost(self):
        k = Chain("dragon")
        cost, nxt = k.op(k.fresh(), 0, "SC", "write")
        assert cost == N * (P + 1)
        # the writer took the SHARED-DIRTY role from the home node
        assert k.count(nxt, "SD") == 1 and nxt[1] == "SHARED-CLEAN"

    def test_dragon_reads_free(self):
        k = Chain("dragon")
        cost, _ = k.op(k.fresh(), 1, "SC", "read")
        assert cost == 0.0

    def test_firefly_write_cost(self):
        k = Chain("firefly")
        cost, _ = k.op(k.fresh(), 0, "S", "write")
        assert cost == N * (P + 1) + 1

    def test_firefly_stateless(self):
        k = Chain("firefly")
        st = k.fresh()
        _, nxt = k.op(st, 0, "S", "write")
        assert nxt == st


class TestRegistry:
    def test_all_eight_kernels(self):
        """Every paper protocol yields a chain from the running code."""
        assert len(PROTOCOLS) == 8
        for name in PROTOCOLS:
            assert Chain(name).ex.table

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            extract_transitions("mesi", N, ((1, KINDS),))

    def test_initial_states_match_protocol_start(self):
        def start(name):
            return Chain(name).fresh()[0][0]

        assert start("write_through") == (("INVALID", 1),)
        assert start("dragon") == (("SHARED-CLEAN", 1),)
        assert start("firefly") == (("SHARED", 1),)
