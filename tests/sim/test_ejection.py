"""Eject-operation tests (paper Section 6 extension) across all protocols."""

import pytest

from repro.sim import DSMSystem

from ..protocols.util import assert_equivalent

S, P, N = 100.0, 30.0, 3
SEQ = N + 1
ALL = ["write_through", "write_through_v", "write_once", "synapse",
       "illinois", "berkeley", "dragon", "firefly", "write_through_dir"]


def run(protocol, ops):
    system = DSMSystem(protocol, N=N, M=1, S=S, P=P)
    costs = []
    for node, kind in ops:
        op = system.submit(node, kind)
        system.settle()
        costs.append(system.metrics.op(op.op_id).cost)
    return system, costs


class TestEjectCosts:
    def test_write_through_silent(self):
        system, costs = run("write_through", [(1, "read"), (1, "eject"),
                                              (1, "read")])
        assert costs == [S + 2, 0.0, S + 2]  # drop free, miss again

    def test_write_through_v_announces(self):
        _, costs = run("write_through_v", [(1, "read"), (1, "eject")])
        assert costs == [S + 2, 1.0]

    def test_dirty_copies_write_back(self):
        for proto in ("synapse", "illinois", "write_once"):
            system = DSMSystem(proto, N=N, M=1, S=S, P=P)
            system.submit(1, "write", params=777)
            system.settle()
            ej = system.submit(1, "eject")
            system.settle()
            assert system.metrics.op(ej.op_id).cost == S + 1.0, proto
            assert system.copy_state(SEQ) == "VALID"
            assert system.copy_state(1) == "INVALID"
            # the written value survived the eviction
            r = system.submit(2, "read")
            system.settle()
            assert r.result == 777, proto

    def test_write_once_reserved_eject(self):
        _, costs = run("write_once",
                       [(1, "read"), (1, "write"), (1, "eject")])
        assert costs[2] == 1.0  # clear the reserved entry

    def test_berkeley_owner_pinned(self):
        system, costs = run("berkeley", [(1, "write"), (1, "eject")])
        assert costs[1] == 0.0
        assert system.copy_state(1) == "DIRTY"  # still the owner

    def test_berkeley_valid_announces(self):
        system, costs = run("berkeley",
                            [(1, "write"), (2, "read"), (2, "eject")])
        assert costs[2] == 1.0
        owner = system.nodes[1].process_for(1)
        assert 2 not in owner.valid_set

    def test_dragon_eject_and_refetch(self):
        system, costs = run("dragon", [(1, "write"), (2, "eject"),
                                       (2, "read")])
        assert costs[1] == 0.0
        assert costs[2] == S + 2  # re-fetch from the owner
        assert system.copy_state(2) == "SHARED-CLEAN"

    def test_dragon_write_after_eject(self):
        _, costs = run("dragon", [(2, "eject"), (2, "write")])
        assert costs[1] == S + 2 + N * (P + 1)

    def test_firefly_eject_and_write_back_in(self):
        system, costs = run("firefly", [(2, "eject"), (2, "write")])
        assert costs[1] == N * (P + 1) + S + 1  # ACK carries the copy
        assert system.copy_state(2) == "SHARED"
        system.check_coherence()

    def test_firefly_read_refetch(self):
        _, costs = run("firefly", [(2, "eject"), (2, "read")])
        assert costs[1] == S + 2


class TestEjectCoherence:
    @pytest.mark.parametrize("protocol", ALL)
    def test_random_mix_with_ejects(self, protocol, rng):
        system = DSMSystem(protocol, N=N, M=2, S=S, P=P)
        for _ in range(60):
            node = int(rng.integers(1, N + 2))
            u = rng.random()
            kind = "read" if u < 0.5 else ("write" if u < 0.8 else "eject")
            system.submit(node, kind, obj=int(rng.integers(1, 3)))
            system.settle()
        system.check_coherence()

    @pytest.mark.parametrize("protocol", ALL)
    def test_kernel_equivalence_with_ejects(self, protocol, rng):
        for _ in range(4):
            ops = []
            for _ in range(25):
                u = rng.random()
                kind = ("read" if u < 0.5
                        else ("write" if u < 0.8 else "eject"))
                ops.append((int(rng.integers(1, N + 1)), kind))
            assert_equivalent(protocol, N, ops)

