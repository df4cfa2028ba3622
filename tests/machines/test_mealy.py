"""The Mealy machines read off the running protocols (paper Section 3).

Each protocol process is ``MM = (Q, Sigma, Omega, delta, lambda, q0)``.
The machines here are recorded from the simulator
(``tests/machines/util.py``); these tests check that they are well formed
against the protocol's declared state sets: ``q0`` and every state
``delta`` reads or writes lie in ``Q``, ``Sigma`` is the paper's, and
each step is determined by its cell.
"""

import pytest

from repro.machines.message import (
    R_GNT,
    R_PER,
    R_REQ,
    UPD,
    W_GNT,
    W_INV,
    W_PER,
    W_REQ,
)
from repro.protocols import get_protocol
from repro.sim import DSMSystem

from .util import record_cells, role_table

PROTOCOLS = ("write_through", "write_through_v")
N = 3


@pytest.fixture(scope="module")
def machines():
    """(protocol, role) -> recorded cells, keyed without the role."""
    out = {}
    for protocol in PROTOCOLS:
        with pytest.MonkeyPatch.context() as mp:
            cells = record_cells(mp, protocol)
        for role in ("client", "sequencer"):
            out[protocol, role] = role_table(cells, role)
    return out


def states_of(protocol, role):
    spec = get_protocol(protocol)
    return set(spec.client_states if role == "client"
               else spec.sequencer_states)


class TestConstruction:
    def test_start_state_must_exist(self):
        for protocol in PROTOCOLS:
            system = DSMSystem(protocol, N=N, M=1)
            assert system.copy_state(1) in states_of(protocol, "client")
            assert system.copy_state(N + 1) in states_of(protocol,
                                                         "sequencer")

    def test_table_states_validated(self, machines):
        for (protocol, role), table in machines.items():
            assert {cell[0] for cell in table} <= states_of(protocol, role)

    def test_next_states_validated(self, machines):
        for (protocol, role), table in machines.items():
            reached = {out[0] for outs in table.values() for out in outs}
            assert reached <= states_of(protocol, role)

    def test_input_alphabet(self, machines):
        """Write-Through's six message types (Section 3), split by role."""
        alphabet = {role: {cell[1] for cell in
                           machines["write_through", role]}
                    for role in ("client", "sequencer")}
        assert alphabet == {"client": {R_REQ, W_REQ, R_GNT, W_INV},
                            "sequencer": {R_REQ, W_REQ, R_PER, W_PER}}

    def test_defined_inputs(self, machines):
        client = machines["write_through", "client"]
        assert {(cell[1], cell[2]) for cell in client
                if cell[0] == "VALID"} == {
            (R_REQ, True), (W_REQ, True), (W_INV, False)}


class TestExecution:
    def test_step_transitions_and_outputs(self, machines):
        """delta and lambda are functions of (state, input): each recorded
        cell steps to one next state with one output, except the
        Write-Through-V sequencer's W-PER, whose grant carries the user
        information only for a writer outside its validity directory."""
        branching = {(protocol, role, cell[1])
                     for (protocol, role), table in machines.items()
                     for cell, outcomes in table.items() if len(outcomes) > 1}
        assert branching == {("write_through_v", "sequencer", W_PER)}

    def test_error_cells_raise(self, machines):
        """The paper's 'error' cells, undefined (state, input) pairs, are
        never reached: permission requests go only to the sequencer, and
        grants and invalidations only to clients."""
        for protocol in PROTOCOLS:
            client = {cell[1] for cell in machines[protocol, "client"]}
            sequencer = {cell[1] for cell in machines[protocol, "sequencer"]}
            assert not client & {R_PER, W_PER}
            assert not sequencer & {R_GNT, W_GNT, W_INV}

    def test_local_distinction(self, machines):
        """The tables key on whether the node itself initiated the input:
        requests and the grants answering them are local, permission
        requests and invalidations arrive from other initiators."""
        inputs = {(cell[1], cell[2]) for table in machines.values()
                  for cell in table}
        assert {t for t, local in inputs if local} == {
            R_REQ, W_REQ, R_GNT, W_GNT}
        assert {t for t, local in inputs if not local} == {
            R_PER, W_PER, W_INV, UPD}
