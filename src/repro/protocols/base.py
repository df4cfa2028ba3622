"""Operational protocol layer shared by all eight coherence protocols.

Paper Section 3 specifies each protocol process as a Mealy machine; the
classes built on this module *are* those machines, the one definition the
discrete-event simulator executes and the analytic chains are extracted
from: per-node, per-object protocol processes with explicit message
handlers.

Design (paper Section 2):

* There are ``N + 1`` nodes; node indices are ``1 .. N`` for the clients and
  ``N + 1`` for the sequencer (the paper's convention).
* An application process issues read/write :class:`Operation` requests to the
  protocol process of the addressed object.
* Protocol processes exchange :class:`~repro.machines.message.Message`
  objects over fault-free FIFO channels.  Clients of fixed-home protocols
  talk only to the sequencer; the migrating-owner protocols (Berkeley,
  Dragon) address the *believed owner*, learning ownership changes from the
  invalidation/update broadcasts that every ownership transfer already emits
  (no additional messages; see DESIGN.md).
* When a distributed operation requires a response, the client's local queue
  is disabled until the response arrives (the paper's disable/enable
  mechanism).

Every concrete protocol provides a :class:`ProtocolSpec` with factories for
the client-side and sequencer-side processes plus the protocol's metadata
(state sets, the states that serve local reads, the owner states).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    Any, Callable, FrozenSet, Iterable, List, Optional, Tuple,
)

from ..machines.message import Message, MsgType, ParamPresence

__all__ = [
    "READ",
    "WRITE",
    "EJECT",
    "Operation",
    "ProcessContext",
    "ProtocolProcess",
    "ProtocolSpec",
    "HoldingMixin",
]

#: Operation kind constants.
READ = "read"
WRITE = "write"
#: Section 6 extension: a node voluntarily drops its replica (memory
#: pressure); never issued by the paper's workloads.
EJECT = "eject"


@dataclass(slots=True)
class Operation:
    """One shared-memory operation issued by an application process.

    Attributes:
        op_id: globally unique identifier; every message a protocol sends on
            behalf of this operation carries it, which is how the simulator
            attributes trace communication costs.
        node: issuing node index (``1 .. N+1``).
        kind: ``"read"`` or ``"write"``.
        obj: shared-object index (``1 .. M``).
        issue_time: simulation time the application issued the request.
        params: write parameters (the simulator uses the ``op_id`` itself as
            the written value).
    """

    op_id: int
    node: int
    kind: str
    obj: int
    issue_time: float = 0.0
    params: Any = None

    #: simulation time the operation completed (set by the node).
    complete_time: Optional[float] = None
    #: value returned to the application (reads only).
    result: Any = None
    #: optional completion callback (drives closed-loop applications).
    callback: Optional[Any] = None


class ProcessContext(abc.ABC):
    """Facilities a protocol process uses to act on the world.

    The simulator implements this against real channels and queues; the
    protocol unit tests implement it against an in-memory recording fabric.
    All sends are attributed to an operation for cost accounting.
    """

    #: this node's index
    node_id: int
    #: the sequencer node's index (``N + 1``)
    sequencer_id: int
    #: all node indices, ``1 .. N+1``
    all_nodes: Tuple[int, ...]
    #: the shared-object index this process controls
    obj: int
    #: the shared :class:`~repro.sim.reconfig.MembershipView` of a quorum
    #: protocol with reconfiguration or vote weights; ``None`` otherwise
    membership = None

    @property
    def client_nodes(self) -> Tuple[int, ...]:
        """All client indices (every node except the sequencer)."""
        return tuple(n for n in self.all_nodes if n != self.sequencer_id)

    @abc.abstractmethod
    def send(
        self,
        dst: int,
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
    ) -> None:
        """Send one message to ``dst``.

        Its communication cost is charged to the operation ``op_id`` — every
        message of a trace carries the id of the operation that initiated
        the trace, including messages relayed by the sequencer (grants,
        invalidations, recalls), so per-operation trace costs are exact.
        """

    def broadcast_except(
        self,
        excluded: Iterable[int],
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
    ) -> int:
        """Send to every node except ``excluded``; returns the fan-out width.

        This is the one definition of who receives a broadcast; the sends
        themselves go through :meth:`send_many`.
        """
        excluded_set = set(excluded) | {self.node_id}
        targets = [n for n in self.all_nodes if n not in excluded_set]
        self.send_many(targets, msg_type, presence, op_id, payload, initiator)
        return len(targets)

    def send_many(
        self,
        targets: Iterable[int],
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
    ) -> None:
        """Send the same message to each of ``targets``, in order.

        The default loops over :meth:`send`; the simulator's port
        overrides it to look the shared token up once per fan-out.
        """
        for dst in targets:
            self.send(dst, msg_type, presence, op_id, payload, initiator)

    def send_unordered(
        self,
        dst: int,
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
        quorum: bool = False,
        hedge: bool = False,
    ) -> None:
        """Send one message outside the FIFO channel ordering.

        Quorum protocols use this for phase messages whose loss is
        handled by quorum re-selection rather than by the reliable
        layer's in-order delivery guarantee: an abandoned datagram never
        wedges the channel behind it.  ``quorum=True`` marks a
        re-selection re-broadcast, charged to the ``quorum`` cost share
        instead of the protocol share; ``hedge=True`` marks a hedge leg
        (:mod:`repro.sim.hedge`), charged to the ``hedge`` share.  The
        default falls back to the ordered :meth:`send` (exact on a
        fault-free fabric, where no message is ever retried or
        abandoned).
        """
        del quorum, hedge  # only meaningful on a reliable fabric
        self.send(dst, msg_type, presence, op_id, payload, initiator)

    def send_many_unordered(
        self,
        targets: Iterable[int],
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
        quorum: bool = False,
        hedge: bool = False,
    ) -> None:
        """Send the same unordered message to each of ``targets``, in order.

        The default loops over :meth:`send_unordered`; the simulator's
        port overrides it to post a fault-free fan-out at once.
        """
        for dst in targets:
            self.send_unordered(dst, msg_type, presence, op_id, payload,
                                initiator, quorum, hedge)

    def cancel_unordered(self, op_id: int) -> int:
        """Hook: void pending unordered retries for ``op_id`` (hedging).

        The default is a no-op returning 0; the simulator's port
        forwards it to the reliable transport's datagram cancellation.
        """
        del op_id
        return 0

    def record_hedge_launch(self, legs: int) -> None:
        """Hook: a quorum phase launched ``legs`` hedge legs.

        The default is a no-op; the simulator's port overrides it to
        count hedge launches for the robustness banner.
        """
        del legs

    def schedule(self, delay: float, callback: Any) -> Any:
        """Schedule ``callback`` after ``delay`` sim time; returns a handle.

        Only quorum protocols need process-level timers (phase
        re-selection); fabrics that cannot host them refuse loudly.
        """
        raise NotImplementedError(
            "this fabric does not support protocol timers"
        )

    def record_quorum_reselection(self) -> None:
        """Hook: a quorum phase timed out and re-selected its quorum.

        The default is a no-op; the simulator's port overrides it to
        count re-selection attempts for the robustness banner and the
        metrics registry.
        """

    @abc.abstractmethod
    def complete(self, op: Operation, value: Any = None) -> None:
        """Report ``op`` finished to the application process."""

    def value_installed(self, process: "ProtocolProcess", value: Any) -> None:
        """Hook: ``process`` installed ``value`` into its copy.

        Fired on every assignment to :attr:`ProtocolProcess.value`
        through :attr:`install_hook`.  The default is a no-op; the
        simulator's port overrides it to feed the recovery subsystem's
        ordered write log and the consistency monitor's version vectors
        (:mod:`repro.sim.recovery`, :mod:`repro.sim.monitor`).
        """

    @property
    def install_hook(self) -> Optional[Callable[["ProtocolProcess", Any],
                                                 None]]:
        """What an assignment to :attr:`ProtocolProcess.value` calls, or
        ``None`` to call nothing.

        Here it is :meth:`value_installed`; the simulator's port replaces
        it with ``None`` unless an observer is attached, so an unobserved
        install costs one attribute read.
        """
        return self.value_installed

    @abc.abstractmethod
    def disable_local_queue(self) -> None:
        """Suspend the local queue while awaiting a response (Section 2)."""

    @abc.abstractmethod
    def enable_local_queue(self) -> None:
        """Resume the local queue."""


class ProtocolProcess(abc.ABC):
    """A per-node, per-object protocol process.

    Concrete subclasses keep the copy state in :attr:`state` (using the
    paper's state names) and the simulated user information in
    :attr:`value` (the ``op_id`` of the last write applied to this copy).
    """

    #: Crash-recovery hook: when set on a *client* process class, a
    #: recovering node may install its fetched snapshot in this state at
    #: rejoin (warm rejoin).  Sound only for protocols whose writes reach
    #: every node unconditionally (no directory/holder set the rejoined
    #: copy would need to re-register with); ``None`` rejoins cold.
    WARM_REJOIN_STATE: Optional[str] = None

    def __init__(self, ctx: ProcessContext, initial_state: str, initial_value: Any = 0):
        self.ctx = ctx
        #: current copy state (paper state name, e.g. ``"VALID"``)
        self.state = initial_state
        #: simulated user-information content of this copy
        self.value = initial_value

    @property
    def value(self) -> Any:
        """Simulated user-information content of this copy."""
        return self._value

    @value.setter
    def value(self, new_value: Any) -> None:
        self._value = new_value
        hook = self.ctx.install_hook
        if hook is not None:
            hook(self, new_value)

    @abc.abstractmethod
    def on_request(self, op: Operation) -> None:
        """Handle a read/write request from the local application process."""

    @abc.abstractmethod
    def on_message(self, msg: Message) -> None:
        """Handle a message arriving on the distributed queue."""


class HoldingMixin:
    """Buffering for serialization points that must wait for a response.

    A sequencer/owner that has issued a recall (or granted a two-phase
    write) holds every other incoming request until the response arrives.
    Holding is pure buffering — it costs no messages — and preserves the
    global serialization the paper's sequencer provides.  Subclasses call
    :meth:`_hold` to buffer work and :meth:`_release_held` after the
    response; held items are replayed through ``on_request``/``on_message``.
    """

    def _init_holding(self) -> None:
        self._busy: bool = False
        self._held: List[Any] = []

    def _hold(self, item: Any) -> None:
        self._held.append(item)

    def _release_held(self) -> None:
        """Replay buffered work; items that hit a new busy period re-buffer."""
        held, self._held = self._held, []
        for item in held:
            if self._busy:
                self._held.append(item)
            elif isinstance(item, Operation):
                self.on_request(item)  # type: ignore[attr-defined]
            else:
                self.on_message(item)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class ProtocolSpec:
    """Metadata plus factories for one coherence protocol.

    Attributes:
        name: registry key (e.g. ``"berkeley"``).
        display_name: paper name (e.g. ``"Berkeley"``).
        client_states: the client copy's state set (paper appendix).
        sequencer_states: the sequencer copy's state set.
        invalidation_based: ``True`` for invalidate protocols, ``False`` for
            the update protocols (Dragon, Firefly).
        migrating_owner: whether the sequencer role migrates (Berkeley,
            Dragon).
        client_factory: ``(ctx) -> ProtocolProcess`` for client nodes.
        sequencer_factory: ``(ctx) -> ProtocolProcess`` for node ``N + 1``.
        notes: reconstruction notes (cost choreography, cf. DESIGN.md).
        quorum_based: ``True`` for the sequencer-less majority-quorum
            family (SC-ABD): every node is a symmetric replica, liveness
            needs only a majority, and the recovery/failover subsystems
            (which assume a sequencer) do not apply.
        hit_states: the copy states (client or sequencer side) in which
            a local read hits; empty for the quorum family, whose reads
            are all distributed rounds.
        owner_states: the states of a migrating owner's copy, which holds
            the authoritative value; empty for fixed-home protocols.
    """

    name: str
    display_name: str
    client_states: Tuple[str, ...]
    sequencer_states: Tuple[str, ...]
    invalidation_based: bool
    migrating_owner: bool
    client_factory: Any
    sequencer_factory: Any
    notes: str = ""
    quorum_based: bool = False
    hit_states: FrozenSet[str] = frozenset()
    owner_states: FrozenSet[str] = frozenset()

    def make_process(self, ctx: ProcessContext) -> ProtocolProcess:
        """Instantiate the right process for ``ctx.node_id``'s role."""
        if ctx.node_id == ctx.sequencer_id:
            return self.sequencer_factory(ctx)
        return self.client_factory(ctx)
