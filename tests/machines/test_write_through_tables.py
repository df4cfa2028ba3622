"""The Write-Through Mealy tables (paper Tables 1-3, Figures 1-4).

The tables are transcribed here as plain literals and checked against the
running protocol: every delivery of the analytic explorer's runs is
recorded as a table cell (``tests/machines/util.py``), each transcribed
cell must be reached with exactly its transcribed next state, local-queue
gate and emitted tokens, and no other cell may occur (the paper's *error*
cells).  Table 2's output routines reduce to the emitted tokens: ``pop``,
``change`` and ``return`` move no message.
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
    W_INV,
    W_PER,
    W_REQ,
)
from repro.sim import DSMSystem

from .util import record_cells, role_table

N = 3
SEQ = N + 1
INVALID, VALID = "INVALID", "VALID"

#: Table 1, the client machine (q0 = INVALID):
#: (state, input, initiator is local, presence)
#:     -> (next state, local-queue gate, emitted tokens)
TABLE_1 = {
    # tr1: local read hit
    (VALID, R_REQ, True, PP_READ): (VALID, None, ()),
    # tr2: read miss, ask the sequencer, block the local queue
    (INVALID, R_REQ, True, PP_READ): (
        INVALID, "disable", (("sequencer", R_PER, PP_NONE),)),
    # tr3: write-through, give up the local copy
    (VALID, W_REQ, True, PP_WRITE): (
        INVALID, None, (("sequencer", W_PER, PP_WRITE),)),
    # tr4: write-through from INVALID
    (INVALID, W_REQ, True, PP_WRITE): (
        INVALID, None, (("sequencer", W_PER, PP_WRITE),)),
    # tr2 end: the grant installs the copy and re-enables the queue
    (INVALID, R_GNT, True, PP_USER_INFO): (VALID, "enable", ()),
    # a remote write invalidates the copy
    (VALID, W_INV, False, PP_NONE): (INVALID, None, ()),
    (INVALID, W_INV, False, PP_NONE): (INVALID, None, ()),
}

#: Table 3, the sequencer machine (the single state VALID), with the
#: Table 2 routine numbers
TABLE_3 = {
    # 101 / tr5: own read
    (VALID, R_REQ, True, PP_READ): (VALID, None, ()),
    # 102 / tr6: own write, push(except(N+1), W-INV)
    (VALID, W_REQ, True, PP_WRITE): (
        VALID, None, (("except(N+1)", W_INV, PP_NONE),)),
    # 103: push(k, R-GNT, ui)
    (VALID, R_PER, False, PP_NONE): (
        VALID, None, (("initiator", R_GNT, PP_USER_INFO),)),
    # 104: change; push(except(k, N+1), W-INV)
    (VALID, W_PER, False, PP_WRITE): (
        VALID, None, (("except(k, N+1)", W_INV, PP_NONE),)),
}


@pytest.fixture(scope="module")
def cells():
    with pytest.MonkeyPatch.context() as mp:
        return record_cells(mp, "write_through")


def assert_cell(cells, role, table, cell):
    """The running protocol's only outcome for ``cell`` is the table's."""
    assert role_table(cells, role)[cell] == {table[cell]}


class TestClientTable:
    """Table 1: the client machine, states {INVALID, VALID}, q0 = INVALID."""

    def test_starting_state_invalid(self):
        system = DSMSystem("write_through", N=N, M=1)
        assert system.copy_state(1) == INVALID  # Figure 1

    def test_tr1_read_hit_local_only(self, cells):
        assert_cell(cells, "client", TABLE_1,
                    (VALID, R_REQ, True, PP_READ))

    def test_tr2_read_miss_asks_sequencer_and_disables(self, cells):
        assert_cell(cells, "client", TABLE_1,
                    (INVALID, R_REQ, True, PP_READ))

    def test_tr2_grant_validates_and_enables(self, cells):
        assert_cell(cells, "client", TABLE_1,
                    (INVALID, R_GNT, True, PP_USER_INFO))

    @pytest.mark.parametrize("start", [VALID, INVALID])
    def test_tr3_tr4_write_forwards_params_and_self_invalidates(
            self, cells, start):
        # the paper's distributed Write-Through signature: the writer
        # ends INVALID
        assert_cell(cells, "client", TABLE_1, (start, W_REQ, True, PP_WRITE))

    def test_remote_invalidation(self, cells):
        for start in (VALID, INVALID):
            assert_cell(cells, "client", TABLE_1,
                        (start, W_INV, False, PP_NONE))

    def test_error_cell(self, cells):
        """Every Table 1 cell is reached, and no delivery falls outside
        the table."""
        client = role_table(cells, "client")
        assert client == {cell: {out} for cell, out in TABLE_1.items()}


class TestSequencerTable:
    """Table 3: the sequencer machine, single state VALID."""

    def test_starting_state_valid(self):
        system = DSMSystem("write_through", N=N, M=1)
        assert system.copy_state(SEQ) == VALID

    def test_routine_101_tr5_local_read(self, cells):
        assert_cell(cells, "sequencer", TABLE_3,
                    (VALID, R_REQ, True, PP_READ))

    def test_routine_102_tr6_own_write_invalidates_all_N(self, cells):
        assert_cell(cells, "sequencer", TABLE_3,
                    (VALID, W_REQ, True, PP_WRITE))

    def test_routine_103_read_grant_with_ui(self, cells):
        assert_cell(cells, "sequencer", TABLE_3,
                    (VALID, R_PER, False, PP_NONE))

    def test_routine_104_write_invalidates_N_minus_1(self, cells):
        assert_cell(cells, "sequencer", TABLE_3,
                    (VALID, W_PER, False, PP_WRITE))

    def test_error_cell(self, cells):
        """Every Table 3 cell is reached, and no delivery falls outside
        the table."""
        sequencer = role_table(cells, "sequencer")
        assert sequencer == {cell: {out} for cell, out in TABLE_3.items()}


class TestFormalEqualsOperational:
    """The transcribed traces and the simulator emit identical traffic."""

    def _operational_signature(self, scenario):
        system = DSMSystem("write_through", N=N, M=1, S=100, P=30)
        ops = [system.submit(node, kind) for node, kind in scenario]
        system.settle()
        return [
            tuple(system.metrics.op(o.op_id).signature) for o in ops
        ]

    def test_trace_signatures_match_figures(self):
        # client 1: read miss (tr2), write (tr3), read miss again (tr2),
        # sequencer write (tr6)
        sigs = self._operational_signature(
            [(1, "read"), (1, "write"), (1, "read"), (SEQ, "write")]
        )
        tr2 = (("R-PER", "0"), ("R-GNT", "ui"))
        tr3 = (("W-PER", "w"),) + (("W-INV", "0"),) * (N - 1)
        tr6 = (("W-INV", "0"),) * N
        assert sigs[0] == tr2
        assert sigs[1] == tr3
        assert sigs[2] == tr2  # the writer lost its copy: reads miss again
        assert sigs[3] == tr6
