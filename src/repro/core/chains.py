"""Chain builders: workload deviation x running protocol -> Markov chain.

For each deviation of Section 4.2 the acting nodes form symmetric groups
with per-member trial rates:

* **read disturbance** — the activity center (reads ``1 - p - a*sigma``,
  writes ``p``) and ``a`` disturbers (read ``sigma`` each);
* **write disturbance** — the activity center (reads ``1 - p - a*xi``,
  writes ``p``) and ``a`` disturbers (write ``xi`` each);
* **multiple activity centers** — ``beta`` centers, each reading
  ``(1 - p)/beta`` and writing ``p/beta``.

Section 4.1 asks for the set of traces to be "determined by a thorough
analysis of the applied coherence protocol".  :func:`extract_transitions`
does that analysis on the operational protocol itself: it runs every
atomic operation of every actor group on a fault-free
:class:`~repro.sim.DSMSystem` until the system is quiescent and records
what the operation cost and which *reduced* global state it left behind.
The reduction exploits the symmetry of the workloads — the members of a
group are exchangeable — so a state is

``(per-group counts of the members' copy states, sequencer copy state)``

with one more group for the clients that never act, represented by one
such client.  Costs are recorded as message counts per cost class
(``1``, ``S + 1``, ``P + 1``), with the idle client's share counted
apart and scaled to the number of idle clients, so one exploration
serves every ``N``, ``p``, ``sigma``, ``xi``, ``S`` and ``P``.

Each chain state's outgoing events enumerate, for every group and member
state with non-zero count, "one such member reads/writes", with
probability ``count * rate``.  The event probabilities sum to one by
construction, mirroring the paper's mutually exclusive and exhaustive
sample space.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from .markov import solve_chain
from .parameters import Deviation, WorkloadParams

__all__ = [
    "Extraction",
    "GroupSpec",
    "KINDS",
    "build_chain",
    "chain_from",
    "deviation_groups",
    "extract_transitions",
    "markov_acc",
    "price",
]

#: operation kinds in chain order; an eject is the Section 6 extension
KINDS = ("read", "write", "eject")

#: probe prices: a message costs 1, ``2**20`` or ``2**40``, so an
#: operation's cost is exactly ``ones + 2**20 * ui + 2**40 * params``
_S_PROBE = float(2 ** 20 - 1)
_P_PROBE = float(2 ** 40 - 1)

#: one move: (group, member copy state, operation kind)
Move = Tuple[int, str, str]
#: messages per cost class: (tokens, ``S + 1`` copies, ``P + 1`` params)
Units = Tuple[int, int, int]
#: one extracted transition, in chain order:
#: (group, member state, members in that state, kind, units, next state)
Step = Tuple[int, str, int, str, Units, Hashable]


def price(units: Units, S: float, P: float) -> float:
    """Communication cost of ``units`` messages at the given ``S`` and ``P``."""
    return units[0] + units[1] * (S + 1.0) + units[2] * (P + 1.0)


@dataclass(frozen=True)
class Extraction:
    """The atomic transitions of one protocol on one actor layout.

    Attributes:
        initial: the reduced state of a freshly built system.
        table: every reachable state's transitions, in chain order
            (groups, then member states, then read/write/eject).
    """

    initial: Hashable
    table: Dict[Hashable, Tuple[Step, ...]]

    def step(self, state: Hashable, group: int, member: str,
             kind: str) -> Tuple[Units, Hashable]:
        """``(units, next state)`` of one move from ``state``."""
        for g, s, _c, k, units, nxt in self.table[state]:
            if g == group and s == member and k == kind:
                return units, nxt
        raise KeyError(f"no move {(group, member, kind)} from {state!r}")


@lru_cache(maxsize=1024)
def extract_transitions(
    protocol: str,
    N: int,
    groups: Tuple[Tuple[int, Tuple[str, ...]], ...],
    home: bool = False,
) -> Extraction:
    """A protocol's reduced chain for ``N`` clients, from the simulator.

    Args:
        protocol: registry name of a star protocol.
        N: number of clients.
        groups: ``(size, kinds)`` per actor group; ``kinds`` lists the
            group's operations in :data:`KINDS` order.  Groups take
            consecutive clients from node 1; the remaining clients never
            act.
        home: group 0 is the home node itself (size 1), whose reads and
            writes are the sequencer's own traces.

    The states and their order are the same for every ``N``; only the
    idle clients' share of each transition's message counts scales with
    it.

    Raises:
        KeyError: for an unknown protocol or a quorum protocol (which has
            no sequencer-anchored reduced state).
        RuntimeError: if known moves lead the simulator to another
            reduced state than the table says (the reduction lost
            protocol state), or an operation never completes.
    """
    actors, initial, raw = _explore(protocol, groups, home)

    def at_n(units: Tuple[Units, Units]) -> Units:
        # N - actors idle clients; with a = N the activity center and
        # the disturbers outnumber the clients, and this is -1
        own, idle = units
        return tuple(u + (N - actors) * v for u, v in zip(own, idle))

    table = {st: tuple(step[:4] + (at_n(step[4]), step[5])
                       for step in steps)
             for st, steps in raw.items()}
    return Extraction(initial, table)


@lru_cache(maxsize=256)
def _explore(protocol: str, groups: Tuple[Tuple[int, Tuple[str, ...]], ...],
             home: bool) -> Tuple[int, Hashable, Dict]:
    """:func:`_run_moves`, with the cyclic garbage collector paused.

    The explored systems are short-lived reference cycles; collecting
    them mid-exploration is wasted work, and it shifts the collection
    schedule of the rest of the process.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_moves(protocol, groups, home)
    finally:
        if collecting:
            gc.enable()


def _run_moves(protocol: str, groups: Tuple[Tuple[int, Tuple[str, ...]], ...],
               home: bool) -> Tuple[int, Hashable, Dict]:
    """Run every move of every reachable reduced state on the simulator.

    The actors take clients ``1 ..`` (the home group the sequencer) and
    one more client never acts.  Every client that never acts sees the
    same traffic, so each transition records its units twice: the
    actors' and sequencer's share, and the idle client's share, which
    :func:`extract_transitions` scales to any number of clients.
    Returns ``(actor clients, initial state, table)``.
    """
    # deferred: the simulator's workloads import repro.core.parameters
    from ..protocols.registry import get_protocol
    from ..sim.system import DSMSystem

    spec = get_protocol(protocol)
    if spec.quorum_based:
        raise KeyError(f"{spec.name} is a quorum protocol: no star chain")
    actors = sum(size for size, _ in groups) - (1 if home else 0)
    idle = actors + 1
    seq = idle + 1
    members: List[Tuple[int, ...]] = []
    first = 1
    for g, (size, _) in enumerate(groups):
        if home and g == 0:
            members.append((seq,))
            continue
        members.append(tuple(range(first, first + size)))
        first += size
    members.append((idle,))
    index = {s: i for i, s in enumerate(
        dict.fromkeys(spec.client_states + spec.sequencer_states))}
    idle_cost = [0]

    def build():
        system = DSMSystem(spec, N=idle, S=_S_PROBE, P=_P_PROBE)
        # the fabric looks both ledger entry points up at each charge
        metrics = system.metrics
        charge, charge_fan_out = metrics.record_message, metrics.record_fan_out

        def record_message(msg, cost):
            if msg.dst == idle or msg.src == idle:
                idle_cost[0] += int(cost)
            charge(msg, cost)

        def record_fan_out(token, src, dsts, op_id, cost):
            # every charged member (a member sent to src is free)
            members = (len(dsts) - dsts.count(src) if src == idle
                       else dsts.count(idle))
            idle_cost[0] += int(cost) * members
            charge_fan_out(token, src, dsts, op_id, cost)

        metrics.record_message = record_message
        metrics.record_fan_out = record_fan_out
        # fault-free processes are never replaced: bind them once
        procs = [[system.nodes[n].process_for(1) for n in nodes]
                 for nodes in members]
        return system, procs

    def reduce(live) -> Hashable:
        out = []
        for group in live[1]:
            counts: Dict[str, int] = {}
            for proc in group:
                s = proc.state
                counts[s] = counts.get(s, 0) + 1
                index.setdefault(s, len(index))
            out.append(tuple(sorted(counts.items(),
                                    key=lambda sc: index[sc[0]])))
        return tuple(out), live[0].copy_state(seq)

    def moves(state) -> List[Tuple[int, str, int, str]]:
        return [(g, s, c, kind)
                for g, (_, kinds) in enumerate(groups)
                for s, c in state[0][g] for kind in kinds]

    def run(live, g: int, s: str, kind: str):
        system, procs = live
        node = next(n for n, proc in zip(members[g], procs[g])
                    if proc.state == s)
        idle_cost[0] = 0
        op = system.submit(node, kind)
        system.settle()
        if op.complete_time is None:
            raise RuntimeError(f"{spec.name}: {kind} by node {node} hung")
        cost = int(system.metrics.op(op.op_id).cost)
        return ((_units(cost - idle_cost[0]), _units(idle_cost[0])),
                reduce(live))

    def route(start) -> Tuple[Optional[Hashable], Tuple[Move, ...]]:
        """Known moves from ``start`` to the nearest state with moves
        left to explore; ``(None, ())`` if none is reachable."""
        paths = {start: ()}
        queue = deque([start])
        while queue:
            st = queue.popleft()
            if todo[st]:
                return st, paths[st]
            for move, (_units, nxt) in found[st].items():
                if nxt not in paths:
                    paths[nxt] = paths[st] + (move,)
                    queue.append(nxt)
        return None, ()

    live = build()
    initial = reduce(live)
    prefix: Dict[Hashable, Tuple[Move, ...]] = {initial: ()}
    todo = {initial: moves(initial)}
    found: Dict[Hashable, Dict[Move, tuple]] = {initial: {}}
    state = initial
    while True:
        if not todo[state]:
            # walk the live system on to unexplored moves; rebuild and
            # replay a first path only where no known path leads
            target, path = route(state)
            if target is None:
                target = next((st for st, left in todo.items() if left),
                              None)
                if target is None:
                    break
                live, path = build(), prefix[target]
            for move in path:
                run(live, *move)
            if reduce(live) != target:
                raise RuntimeError(
                    f"{spec.name}: moves {path} do not reach {target!r}; "
                    "the reduced state is not exact")
            state = target
        g, s, _c, kind = todo[state].pop()
        units, nxt = found[state][g, s, kind] = run(live, g, s, kind)
        if nxt not in prefix:
            prefix[nxt] = prefix[state] + ((g, s, kind),)
            todo[nxt] = moves(nxt)
            found[nxt] = {}
        state = nxt
    table = {st: tuple((g, s, c, kind) + found[st][g, s, kind]
                       for g, s, c, kind in moves(st))
             for st in prefix}
    return actors, initial, table


def _units(cost: int) -> Units:
    """Decode a cost at the probe prices into per-class message counts."""
    params, rest = divmod(cost, 2 ** 40)
    ui, ones = divmod(rest, 2 ** 20)
    return ones, ui, params


@dataclass(frozen=True)
class GroupSpec:
    """One symmetric actor group."""

    name: str
    size: int
    read_rate: float
    write_rate: float

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The operations this group issues, in chain order."""
        return tuple(kind for kind, rate in (("read", self.read_rate),
                                             ("write", self.write_rate))
                     if rate > 0.0)


def deviation_groups(params: WorkloadParams, deviation: Deviation
                     ) -> Tuple[GroupSpec, ...]:
    """The actor groups and trial rates of a deviation (Section 4.2)."""
    if deviation is Deviation.READ:
        r = 1.0 - params.p - params.a * params.sigma
        groups = [GroupSpec("ac", 1, max(r, 0.0), params.p)]
        if params.a:
            groups.append(GroupSpec("dist", params.a, params.sigma, 0.0))
        return tuple(groups)
    if deviation is Deviation.WRITE:
        r = 1.0 - params.p - params.a * params.xi
        groups = [GroupSpec("ac", 1, max(r, 0.0), params.p)]
        if params.a:
            groups.append(GroupSpec("dist", params.a, 0.0, params.xi))
        return tuple(groups)
    return (
        GroupSpec(
            "centers",
            params.beta,
            params.per_center_read_prob,
            params.per_center_write_prob,
        ),
    )


def chain_from(
    extraction: Extraction,
    groups: Tuple[GroupSpec, ...],
    S: float,
    P: float,
) -> Tuple[Hashable, Callable[[Hashable], List[Tuple[float, float, Hashable]]]]:
    """``(initial state, transition generator)`` over an extraction.

    ``groups`` gives the rates of the extraction's actor groups, in order.
    """
    rates = [{"read": g.read_rate, "write": g.write_rate} for g in groups]
    table = extraction.table

    def transitions(state: Hashable) -> List[Tuple[float, float, Hashable]]:
        return [(c * rates[g][kind], price(units, S, P), nxt)
                for g, _s, c, kind, units, nxt in table[state]]

    return extraction.initial, transitions


def build_chain(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation,
) -> Tuple[Hashable, Callable[[Hashable], List[Tuple[float, float, Hashable]]]]:
    """Build ``(initial state, transition generator)`` for a chain.

    The generator yields ``(probability, cost, next_state)`` triples whose
    probabilities sum to one per state.
    """
    groups = deviation_groups(params, deviation)
    extraction = extract_transitions(
        protocol, params.N, tuple((g.size, g.kinds) for g in groups))
    return chain_from(extraction, groups, params.S, params.P)


def markov_acc(protocol: str, params: WorkloadParams,
               deviation: Deviation) -> float:
    """Exact steady-state ``acc`` from the reduced Markov chain.

    This is the authoritative analytic evaluation for every protocol and
    deviation; the closed forms of :mod:`repro.core.closed_forms` are
    verified against it.
    """
    initial, transitions = build_chain(protocol, params, deviation)
    return solve_chain(initial, transitions)
