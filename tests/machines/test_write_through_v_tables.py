"""The Write-Through-V client table vs the running protocol.

The paper gives the formal Mealy specification only for Write-Through
and calls it "a modeling paradigm for other coherence protocols".  The
client machine of the two-phase-write Write-Through-V (DESIGN.md) is
transcribed here in the style of Table 1 and checked cell by cell against
the deliveries recorded from the running protocol
(``tests/machines/util.py``).  The sequencer has no pure table: its
``W-GNT`` carries the user information only for a writer outside its
validity directory, a process variable rather than a copy state.
"""

import pytest

from repro.machines.message import (
    PP_NONE,
    PP_READ,
    PP_USER_INFO,
    PP_WRITE,
    R_GNT,
    R_PER,
    R_REQ,
    UPD,
    W_GNT,
    W_INV,
    W_PER,
    W_REQ,
)
from repro.sim import DSMSystem

from .util import record_cells, role_table

N = 3
INVALID, VALID = "INVALID", "VALID"

#: the client machine (q0 = INVALID):
#: (state, input, initiator is local, presence)
#:     -> (next state, local-queue gate, emitted tokens)
CLIENT_TABLE = {
    # local read hit
    (VALID, R_REQ, True, PP_READ): (VALID, None, ()),
    # read miss: blocking fetch
    (INVALID, R_REQ, True, PP_READ): (
        INVALID, "disable", (("sequencer", R_PER, PP_NONE),)),
    # grant: install, reply, re-enable
    (INVALID, R_GNT, True, PP_USER_INFO): (VALID, "enable", ()),
    # two-phase write, phase 1: a bare W-PER
    (VALID, W_REQ, True, PP_WRITE): (
        VALID, "disable", (("sequencer", W_PER, PP_NONE),)),
    (INVALID, W_REQ, True, PP_WRITE): (
        INVALID, "disable", (("sequencer", W_PER, PP_NONE),)),
    # phase 2: apply locally, ship the parameters
    (VALID, W_GNT, True, PP_NONE): (
        VALID, "enable", (("sequencer", UPD, PP_WRITE),)),
    # phase 2 from a stale copy: the grant carries the user information
    (INVALID, W_GNT, True, PP_USER_INFO): (
        VALID, "enable", (("sequencer", UPD, PP_WRITE),)),
    (VALID, W_INV, False, PP_NONE): (INVALID, None, ()),
    (INVALID, W_INV, False, PP_NONE): (INVALID, None, ()),
}


@pytest.fixture(scope="module")
def client():
    with pytest.MonkeyPatch.context() as mp:
        return role_table(record_cells(mp, "write_through_v"), "client")


def assert_cell(client, cell):
    """The running protocol's only outcome for ``cell`` is the table's."""
    assert client[cell] == {CLIENT_TABLE[cell]}


class TestFormalClient:
    def test_start_state(self):
        system = DSMSystem("write_through_v", N=N, M=1)
        assert system.copy_state(1) == INVALID

    def test_two_phase_write_message_sequence(self, client):
        """Phase 1 sends a bare W-PER and disables; phase 2 ships UPD+w."""
        assert_cell(client, (VALID, W_REQ, True, PP_WRITE))
        assert_cell(client, (VALID, W_GNT, True, PP_NONE))

    def test_write_from_invalid_pops_user_information(self, client):
        assert_cell(client, (INVALID, W_REQ, True, PP_WRITE))
        assert_cell(client, (INVALID, W_GNT, True, PP_USER_INFO))

    def test_read_miss_and_grant(self, client):
        assert_cell(client, (VALID, R_REQ, True, PP_READ))
        assert_cell(client, (INVALID, R_REQ, True, PP_READ))
        assert_cell(client, (INVALID, R_GNT, True, PP_USER_INFO))

    def test_invalidation(self, client):
        assert_cell(client, (VALID, W_INV, False, PP_NONE))
        assert_cell(client, (INVALID, W_INV, False, PP_NONE))

    def test_error_cells(self, client):
        """Every transcribed cell is reached, and no delivery falls
        outside the table."""
        assert client == {cell: {out} for cell, out in CLIENT_TABLE.items()}


class TestFormalEqualsOperational:
    def _client_sends(self, scenario):
        """Wire traffic emitted by client 1, per operation."""
        system = DSMSystem("write_through_v", N=N, M=1, S=100, P=30)
        ops = [system.submit(node, kind) for node, kind in scenario]
        system.settle()
        # per-op message subsequence sent by node 1 (signature records all
        # attributed messages; filter to client-1 sourced types)
        out = []
        for op in ops:
            sig = system.metrics.op(op.op_id).signature
            out.append(tuple(
                (t, pres) for t, pres in sig
                if t in ("R-PER", "W-PER", "UPD")
            ))
        return out

    def test_write_traffic_matches_table(self):
        sends = self._client_sends([(1, "write"), (1, "read"), (1, "write")])
        assert sends[0] == (("W-PER", "0"), ("UPD", "w"))
        assert sends[1] == ()          # read hit after own write
        assert sends[2] == (("W-PER", "0"), ("UPD", "w"))

    def test_read_miss_traffic_matches_table(self):
        sends = self._client_sends([(2, "write"), (1, "read")])
        assert sends[1] == (("R-PER", "0"),)
