"""Simulated nodes: application interface, queues, and protocol processes.

Each node hosts, per shared object, one protocol process with the paper's
two input queues (Section 2):

* a **local queue** where the application's requests wait; it is *disabled*
  while a distributed operation awaits a response from the sequencer and
  re-enabled by the response (the paper's disable/enable mechanism), which
  preserves per-node operation order;
* a **distributed queue** for messages from other protocol processes; the
  FIFO fabric delivers them in channel order and the node consumes them
  immediately on arrival, so the arrival interleaving at the sequencer *is*
  the global serialization of distributed operations.

Requests and responses to different shared objects are independent — each
object has its own queues and protocol process, matching the paper's
"protocol processes associated with the copies of that particular data
block".

Each :class:`ObjectPort` binds its transport once, at construction: the
fabric's ``send``, the reliable transport's ``send_unordered`` and
``cancel_dgrams`` (``None`` on the plain fabric, which has no datagram
transport), and the scheduler.  The port prices each token once: its
cache maps a ``(type, presence, initiator)`` header to the shared token
and that token's Section 4.1 cost (:func:`token_cost` of the presence
at the system's fixed ``S`` and ``P``), so a send builds one
:class:`Message` and hands it, with its cost, to the bound method.  A
self-send costs 0 (an intra-node action).  A broadcast
(:meth:`ProcessContext.broadcast_except`) reaches the port's
:meth:`ObjectPort.send_many` hook, which looks the token up once; a
quorum phase's fan-out reaches :meth:`ObjectPort.send_many_unordered`.
On the plain fabric
both hooks build the list of messages and hand it to the fabric's
``broadcast`` (bound once, ``None`` on the reliable transport, which
has none), which charges them and posts their deliveries as one
scheduler entry (:mod:`repro.sim.channel`); otherwise every message is
sent on its own.

The fabric delivers to :meth:`SimNode._on_message`, which runs the
receiving process's ``on_message`` and the local-queue pump itself, so
a message reaches its protocol in one frame; :meth:`ObjectPort.deliver`
is a delegate to it.  A :class:`ProtocolProcess` install calls
:attr:`ObjectPort.install_hook`, which is ``None`` (no call) unless
DSMSystem attached a run-history observer.  So three methods left the
hot path: :meth:`~repro.sim.engine.EventScheduler.step` (``run`` fires
events inline) and :meth:`ObjectPort.deliver`, both of which the
benchmark's layer run wraps, and the :meth:`ObjectPort.value_installed`
hook.  All three stay class attributes: the layer run patches the
first two through their class ``__dict__`` and fails without them,
``step`` is the engine's public single-entry driver, and observed runs
(monitor or recovery) still install through ``value_installed``.  Every
other method the layer run wraps stays a class attribute on the hot
path (no instance attribute shadows one), so it keeps attributing time
to it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, Optional, Tuple,
)

from ..machines.message import (
    Message, MessageToken, MsgType, ParamPresence, QueueTag, token_cost,
)
from ..protocols.base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cache import CacheConfig, ReplicaCache
    from .channel import Network
    from .engine import EventScheduler
    from .metrics import Metrics

__all__ = ["ClusterView", "ObjectPort", "SimNode"]


class ClusterView:
    """Mutable cluster-wide role state shared by every node of one system.

    On the paper-faithful fabric the sequencer is node ``N + 1`` forever and
    this object never changes.  Under sequencer failover the recovery
    subsystem reassigns :attr:`sequencer_id` (and bumps :attr:`epoch`), and
    because every node and port reads the role through this shared view,
    the whole system switches to the new sequencer atomically.
    """

    __slots__ = ("sequencer_id", "epoch", "quarantined", "demoted")

    def __init__(self, sequencer_id: int):
        #: the node currently acting as the sequencer
        self.sequencer_id = sequencer_id
        #: current view-change epoch (mirrors the transport's epoch)
        self.epoch = 0
        #: node ids currently evicted from the view (amnesia rejoin or
        #: partition quarantine); the transport absorbs sends to them
        self.quarantined: set[int] = set()
        #: node ids demoted by the latency-aware failure detector (gray
        #: failures): still in the view and reachable, but deprioritized
        #: when quorum protocols pick their primary target set
        self.demoted: set[int] = set()


class ObjectPort(ProcessContext):
    """The :class:`ProcessContext` a protocol process sees for one object."""

    #: set to this port's :meth:`value_installed` by DSMSystem where it
    #: attaches the run-history observer; ``None`` skips the call
    install_hook: Optional[Callable[[ProtocolProcess, Any], None]] = None

    def __init__(self, node: "SimNode", obj: int):
        self._node = node
        self.node_id = node.node_id
        self.all_nodes = node.all_nodes
        self.obj = obj
        # the fabric, the scheduler and the cost constants are fixed for
        # the node's life, so the send and deliver paths bind them once.
        # Only the reliable transport carries unordered datagrams; on the
        # plain fabric both datagram hooks stay None.
        network = node.network
        self._net_send = network.send
        self._net_send_unordered = getattr(network, "send_unordered", None)
        self._net_cancel_dgrams = getattr(network, "cancel_dgrams", None)
        # the plain fabric sends a broadcast in one call; the reliable
        # transport sends per message
        self._net_broadcast = getattr(network, "broadcast", None)
        self._scheduler = node.scheduler
        # tokens are frozen, so one per (type, presence, initiator) is
        # shared, with its inter-node cost, by every message this port
        # sends with that header
        self._tokens: Dict[Tuple[MsgType, ParamPresence, int],
                           Tuple[MessageToken, float]] = {}
        #: the protocol process bound to this port (set by SimNode)
        self.process: Optional[ProtocolProcess] = None
        #: local request queue and its gate
        self.local_queue: Deque[Operation] = deque()
        self.local_enabled: bool = True
        #: partition degraded mode (``serve_local_reads`` policy): while
        #: the gate is closed by a partition quarantine, queue-head reads
        #: may be answered from the stale local replica
        self.degraded_reads: bool = False
        #: dispatched-but-incomplete operations (op_id -> Operation); the
        #: recovery subsystem re-drives these after an epoch reset
        self.inflight: Dict[int, Operation] = {}
        #: shared :class:`~repro.sim.reconfig.MembershipView`; attached by
        #: DSMSystem only when reconfiguration or quorum vote weights are
        #: configured (``None`` keeps the static fast path bit-identical)
        self.membership = None
        #: :class:`~repro.sim.hedge.HedgeConfig`; attached by DSMSystem
        #: only when hedged quorum requests are configured (``None`` keeps
        #: the unhedged phase machine bit-identical)
        self.hedge = None

    @property
    def demoted_nodes(self) -> "set[int]":
        """Nodes demoted by the latency-aware detector (gray failures)."""
        return self._node.cluster.demoted

    @property
    def sequencer_id(self) -> int:  # type: ignore[override]
        """The current sequencer (dynamic under failover)."""
        return self._node.cluster.sequencer_id

    # -- ProcessContext ---------------------------------------------------

    def send(
        self,
        dst: int,
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
    ) -> None:
        src = self.node_id
        key = (msg_type, presence, src if initiator is None else initiator)
        entry = self._tokens.get(key)
        if entry is None:
            entry = self._token(key)
        token, cost = entry
        self._net_send(Message(token, src, dst, payload, op_id),
                       0.0 if dst == src else cost)

    def send_many(
        self,
        targets: Iterable[int],
        msg_type: MsgType,
        presence: ParamPresence,
        op_id: Optional[int],
        payload: Any = None,
        initiator: Optional[int] = None,
    ) -> None:
        # the cache lookup is inlined in each send method, as in send:
        # these run once per message, and a helper call would cost more
        # than the lookup
        src = self.node_id
        key = (msg_type, presence, src if initiator is None else initiator)
        entry = self._tokens.get(key)
        if entry is None:
            entry = self._token(key)
        token, cost = entry
        broadcast = self._net_broadcast
        if broadcast is not None:
            broadcast([Message(token, src, dst, payload, op_id)
                       for dst in targets], cost)
            return
        net_send = self._net_send
        for dst in targets:
            net_send(Message(token, src, dst, payload, op_id),
                     0.0 if dst == src else cost)

    def _token(self, key: Tuple[MsgType, ParamPresence, int]
               ) -> Tuple[MessageToken, float]:
        """Make, price and cache the shared token for a ``(type,
        presence, initiator)`` header seen for the first time."""
        msg_type, presence, initiator = key
        token = MessageToken(
            type=msg_type,
            operation_initiator=initiator,
            object_name=self.obj,
            queue=QueueTag.DISTRIBUTED,
            parameter_presence=presence,
        )
        entry = self._tokens[key] = (
            token, token_cost(presence, self._node.S, self._node.P))
        return entry

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
        src = self.node_id
        key = (msg_type, presence, src if initiator is None else initiator)
        entry = self._tokens.get(key)
        if entry is None:
            entry = self._token(key)
        token, cost = entry
        msg = Message(token, src, dst, payload, op_id)
        if dst == src:
            cost = 0.0
        send_unordered = self._net_send_unordered
        if send_unordered is None:
            # plain fabric: FIFO sends are exact (nothing is
            # ever retried or abandoned, so ordering cannot wedge).
            self._net_send(msg, cost)
        else:
            send_unordered(msg, cost, quorum, hedge)

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
        if self._net_broadcast is None:
            super().send_many_unordered(targets, msg_type, presence, op_id,
                                        payload, initiator, quorum, hedge)
        else:
            # plain fabric: unordered sends are FIFO sends (see
            # send_unordered), so the fan-out is send_many's
            self.send_many(targets, msg_type, presence, op_id, payload,
                           initiator)

    def cancel_unordered(self, op_id: int) -> int:
        """Cancel this node's pending datagram retries for ``op_id``.

        Hedge-loser cancellation; a no-op (returns 0) on fabrics without
        the datagram transport.
        """
        cancel_dgrams = self._net_cancel_dgrams
        if cancel_dgrams is None:
            return 0
        return cancel_dgrams(self.node_id, op_id)

    def record_hedge_launch(self, legs: int) -> None:
        """Count hedge legs fired by a quorum phase (CLI banner stat)."""
        self._node.metrics.reliability.hedges_launched += legs

    def schedule(self, delay: float, callback: Any) -> Any:
        return self._scheduler.schedule(delay, callback)

    def record_quorum_reselection(self) -> None:
        self._node.metrics.reliability.quorum_reselections += 1

    def complete(self, op: Operation, value: Any = None) -> None:
        op.complete_time = self._scheduler.now
        op.result = value
        self.inflight.pop(op.op_id, None)
        self._node.metrics.record_complete(op.op_id, op.complete_time)
        if self._node.observer is not None:
            self._node.observer.on_complete(op)
        if self._node.cache is not None:
            self._node.cache.after_op(op)
        if self._node.on_complete is not None:
            self._node.on_complete(op)
        if op.callback is not None:
            op.callback(op)

    def value_installed(self, process: ProtocolProcess, value: Any) -> None:
        # constructor-time installs fire before the process is bound to the
        # port (self.process is still None or the old process), which
        # filters them out: only live protocol installs are observed.
        if process is self.process and self._node.observer is not None:
            self._node.observer.on_install(
                self.node_id, self.obj, value, self._node.scheduler.now
            )

    def disable_local_queue(self) -> None:
        self.local_enabled = False

    def enable_local_queue(self) -> None:
        self.local_enabled = True
        # draining is driven by SimNode after the handler returns.

    # -- queue pump --------------------------------------------------------

    def enqueue_request(self, op: Operation) -> None:
        """Application request arrives on the local queue."""
        self.local_queue.append(op)
        tracer = self._node.metrics.tracer
        if tracer is not None:
            tracer.op_event("enqueue", op.op_id,
                            detail="depth=%d" % len(self.local_queue))
        self.pump()

    def pump(self) -> None:
        """Service local requests while the queue gate is open."""
        node = self._node
        while self.local_enabled and self.local_queue:
            op = self.local_queue.popleft()
            self.inflight[op.op_id] = op
            if node.cache is not None:
                node.cache.on_dispatch(op, self.process.state)
            tracer = node.metrics.tracer
            if tracer is not None:
                tracer.op_event("dispatch", op.op_id)
            self.process.on_request(op)
        if not self.local_enabled and self.degraded_reads:
            self._pump_degraded()

    def _pump_degraded(self) -> None:
        """Serve queue-head reads from the stale local replica.

        Only reads, only while the local copy is readable, and only up to
        the first non-read — program order is preserved; the write (and
        everything behind it) stalls until the partition heals.  Served
        reads are counted as stale and flagged to the observer *before*
        completion, so the consistency monitor can exclude them from the
        sequential-consistency witness (degraded mode is visibly weaker).
        """
        node = self._node
        while (self.local_queue and self.local_queue[0].kind == READ
               and node.recovery is not None
               and self.process.state in node.recovery.hit_states):
            op = self.local_queue.popleft()
            node.metrics.partition.stale_reads_served += 1
            tracer = node.metrics.tracer
            if tracer is not None:
                tracer.op_event("stale_read", op.op_id,
                                detail="served from quarantined replica")
            if node.observer is not None:
                node.observer.on_degraded_read(op)
            self.complete(op, self.process.value)

    def deliver(self, msg: Message) -> None:
        """A message arrives on the distributed queue (see
        :meth:`SimNode._on_message`, which the fabric calls directly)."""
        self._node._on_message(msg)


class SimNode:
    """One node of the ``N + 1``-node system: M ports plus plumbing."""

    def __init__(
        self,
        node_id: int,
        spec: ProtocolSpec,
        num_objects: int,
        scheduler: EventScheduler,
        network: Network,
        metrics: Metrics,
        S: float,
        P: float,
        all_nodes: Tuple[int, ...],
        sequencer_id: "int | ClusterView",
        on_complete: Optional[Callable[[Operation], None]] = None,
        new_op: Optional[Callable[[str, int, int], Operation]] = None,
        cache: Optional[CacheConfig] = None,
        cache_overlay: bool = False,
    ):
        self.node_id = node_id
        #: shared cluster role view; an ``int`` is wrapped for callers that
        #: build nodes directly (the role is then fixed, as in the paper)
        self.cluster = (
            sequencer_id if isinstance(sequencer_id, ClusterView)
            else ClusterView(sequencer_id)
        )
        self.all_nodes = all_nodes
        self.scheduler = scheduler
        self.network = network
        self.metrics = metrics
        self.S = S
        self.P = P
        self.on_complete = on_complete
        self.new_op = new_op
        #: run-history observer (write log / consistency monitor); attached
        #: by DSMSystem only when monitoring or recovery is on
        self.observer = None
        #: recovery manager hook (amnesia crashes, failover); set by DSMSystem
        self.recovery = None
        self.ports: Dict[int, ObjectPort] = {}
        for obj in range(1, num_objects + 1):
            port = ObjectPort(self, obj)
            port.process = spec.make_process(port)
            self.ports[obj] = port
        # bounded replica cache (partial replication); built on every node
        # — enforcement no-ops while this node is the current sequencer,
        # so the cache follows the node through failover promotions.
        self.cache: Optional[ReplicaCache] = None
        if cache is not None:
            if new_op is None:
                raise ValueError("a replica cache needs the new_op factory")
            from .cache import ReplicaCache
            self.cache = ReplicaCache(cache, spec.name, self, S, P,
                                      overlay=cache_overlay)
        network.attach(node_id, self._on_message)

    @property
    def sequencer_id(self) -> int:
        """The current sequencer node (dynamic under failover)."""
        return self.cluster.sequencer_id

    def submit(self, op: Operation) -> None:
        """Application process issues an operation (enters the local queue)."""
        op.issue_time = self.scheduler.now
        self.metrics.register_op(op.op_id, op.node, op.kind, op.obj,
                                 op.issue_time)
        if self.recovery is not None and self.recovery.submission_lost(op):
            # the node is amnesia-crashed: the application process is dead
            # with it, so the operation is lost (counted, never completed).
            return
        if self.observer is not None:
            self.observer.on_submit(op)
        self.ports[op.obj].enqueue_request(op)

    def request_cache_eject(self, obj: int, trigger_id: int) -> None:
        """Issue a cache eviction's EJECT, charged to its trigger.

        A cache eject is internal bookkeeping, not an application
        operation: it is never registered or counted, and all its traffic
        is redirected onto the ``cache_cost`` of the data operation whose
        completion forced the eviction.
        """
        op = self.new_op(EJECT, self.node_id, obj)
        op.issue_time = self.scheduler.now
        self.metrics.redirect_op(op.op_id, trigger_id)
        self.ports[obj].enqueue_request(op)

    def _on_message(self, msg: Message) -> None:
        """A message arrives on its object's distributed queue."""
        port = self.ports[msg.token.object_name]
        port.process.on_message(msg)
        # a response may have re-enabled the local queue (pump has
        # nothing to do while the queue is empty).
        if port.local_queue:
            port.pump()

    def process_for(self, obj: int) -> ProtocolProcess:
        """The protocol process controlling this node's copy of ``obj``."""
        return self.ports[obj].process
