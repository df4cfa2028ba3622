"""Read a running protocol's Mealy table off the simulator.

Paper Section 3 specifies each protocol process as a Mealy machine
``MM = (Q, Sigma, Omega, delta, lambda, q0)``.  :func:`record_cells` runs
the analytic explorer (:func:`repro.core.chains._run_moves`) with the
protocol classes' ``on_request``/``on_message`` and the port's
``send``/``send_many`` wrapped, and records every delivery as one table
cell::

    (role, copy state, input, initiator is local, presence)
        -> (next state, local-queue gate, emitted tokens)

A local request is keyed by its request token (``R-REQ`` carrying read
parameters, ``W-REQ`` carrying write parameters).  The gate is
``"disable"``, ``"enable"`` or ``None`` (unchanged).  Each emitted token is
``(destination, type, presence)``, the destination named as in the
paper's ``push`` routines: ``"sequencer"``, ``"initiator"``,
``"except(N+1)"`` (every client) or ``"except(k, N+1)"`` (every client
but the initiator ``k``); any other target set is kept as sorted node ids.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set, Tuple

from repro.core import chains
from repro.machines.message import MsgType, ParamPresence
from repro.protocols import get_protocol
from repro.protocols.base import READ, WRITE
from repro.sim.node import ObjectPort

#: the home node and one client, both reading and writing: every
#: Write-Through trace tr1-tr6, and every Table 1 and Table 3 cell
HOME_AND_CLIENT = ((1, (READ, WRITE)), (1, (READ, WRITE)))

#: request kind -> (request token type, parameter presence)
REQUESTS = {
    READ: (MsgType.R_REQ, ParamPresence.READ),
    WRITE: (MsgType.W_REQ, ParamPresence.WRITE),
}

Cell = Tuple[str, str, MsgType, bool, ParamPresence]
Outcome = Tuple[str, object, Tuple]


def _destination(port: ObjectPort, initiator: int, targets) -> object:
    clients = set(port.all_nodes) - {port.sequencer_id}
    targets = set(targets)
    for name, nodes in (("sequencer", {port.sequencer_id}),
                        ("initiator", {initiator}),
                        ("except(N+1)", clients),
                        ("except(k, N+1)", clients - {initiator})):
        if targets == nodes:
            return name
    return tuple(sorted(targets))


def record_cells(monkeypatch, protocol: str, groups=HOME_AND_CLIENT,
                 home: bool = True) -> Dict[Cell, Set[Outcome]]:
    """Every delivery of one exploration, as cell -> set of outcomes."""
    spec = get_protocol(protocol)
    cells: Dict[Cell, Set[Outcome]] = defaultdict(set)
    #: (initiator, emitted tokens) of each delivery in progress
    frames = []

    def wrap(handler, key_of):
        def recorded(process, item):
            port = process.ctx
            mtype, presence, initiator = key_of(port, item)
            state, gate = process.state, port.local_enabled
            frames.append((initiator, []))
            try:
                handler(process, item)
            finally:
                emitted = frames.pop()[1]
            opened = port.local_enabled
            role = ("sequencer" if port.node_id == port.sequencer_id
                    else "client")
            cells[role, state, mtype, initiator == port.node_id,
                  presence].add((
                      process.state,
                      None if opened == gate
                      else ("enable" if opened else "disable"),
                      tuple(emitted)))
        return recorded

    def request_key(port, op):
        return REQUESTS[op.kind] + (port.node_id,)

    def message_key(port, msg):
        token = msg.token
        return token.type, token.parameter_presence, token.operation_initiator

    def emit(port, targets, msg_type, presence):
        if frames:
            initiator, emitted = frames[-1]
            emitted.append((_destination(port, initiator, targets),
                            msg_type, presence))

    send, send_many = ObjectPort.send, ObjectPort.send_many

    def send_recorded(port, dst, msg_type, presence, *args, **kwargs):
        emit(port, (dst,), msg_type, presence)
        send(port, dst, msg_type, presence, *args, **kwargs)

    def send_many_recorded(port, targets, msg_type, presence, *args,
                           **kwargs):
        targets = list(targets)
        emit(port, targets, msg_type, presence)
        send_many(port, targets, msg_type, presence, *args, **kwargs)

    classes = {spec.client_factory, spec.sequencer_factory}
    handlers = {cls: (cls.on_request, cls.on_message) for cls in classes}
    for cls, (on_request, on_message) in handlers.items():
        monkeypatch.setattr(cls, "on_request", wrap(on_request, request_key))
        monkeypatch.setattr(cls, "on_message", wrap(on_message, message_key))
    monkeypatch.setattr(ObjectPort, "send", send_recorded)
    monkeypatch.setattr(ObjectPort, "send_many", send_many_recorded)
    # the explorer itself, not its per-process memo: every move must run
    chains._run_moves(protocol, groups, home)
    return dict(cells)


def role_table(cells, role: str):
    """One role's cells, keyed without the role."""
    return {cell[1:]: outcomes for cell, outcomes in cells.items()
            if cell[0] == role}
