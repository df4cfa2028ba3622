"""The distributed shared-memory system facade (paper Section 2).

:class:`DSMSystem` assembles the full substrate — ``N + 1`` nodes, the
fault-free FIFO fabric, per-object protocol processes with local/distributed
queues, cost accounting — and runs stochastic workloads against it the way
the paper's Ada simulator did (Section 5.2): operations arrive as a Poisson
stream whose event mix equals the workload's trial distribution, the first
``warmup`` completions are discarded, and ``acc`` is measured over the
steady-state window.

The class also exposes the whole-system invariants the test suite checks:
FIFO delivery (enforced inside :class:`~repro.sim.channel.Network`),
quiescent coherence (every locally readable copy equals the authoritative
serialized value) and conservation of cost attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Tuple)

# ``numpy.random`` loads on first use unless imported: importing it here
# keeps every import out of a run's timed phase
from numpy.random import default_rng

from ..protocols.base import EJECT, READ, WRITE, Operation, ProtocolSpec
from ..protocols.registry import get_protocol
from .channel import Network
from .config import RunConfig
from .engine import EventScheduler
from .metrics import Metrics
from .node import ClusterView, SimNode

# each optional subsystem is imported by the builder in ``_SUBSYSTEMS``
# that builds it, so a run on the paper's fabric loads none of them
if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Tracer
    from ..workloads.base import Workload
    from .monitor import ConsistencyMonitor, ConsistencyViolation
    from .partition import FailureDetector
    from .reconfig import MembershipView, ReconfigManager
    from .recovery import RecoveryManager, WriteLog

__all__ = ["DSMSystem", "SimulationResult"]

#: channel latency: simulated time units per hop
_HOP_LATENCY = 1.0

#: operation kinds :meth:`DSMSystem.submit` accepts
_SUBMIT_KINDS = (READ, WRITE, EJECT)

#: the RunConfig fields that parameterize one run; every other field
#: builds the fabric and is fixed when the system is constructed
_RUN_FIELDS = frozenset({"ops", "warmup", "seed", "mean_gap", "max_events"})
_FABRIC_FIELDS = tuple(f.name for f in fields(RunConfig)
                       if f.name not in _RUN_FIELDS)


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    protocol: str
    total_ops: int
    warmup: int
    measured: int
    #: steady-state average communication cost per operation
    acc: float
    #: total simulated messages
    messages: int
    #: final simulation time
    end_time: float
    metrics: Metrics
    #: operations that never completed because a message's retry budget
    #: ran out, an amnesia crash killed their node, or a partition
    #: quarantine stalled them (graceful degradation under faults); 0 on
    #: a healthy run
    incomplete_ops: int = 0
    #: structured findings: every retry-budget exhaustion as a
    #: :class:`~repro.sim.reliable.DeliveryViolation`, plus — when the
    #: system's config has ``monitor=True`` and the run had no delivery
    #: failures — the consistency monitor's
    #: :class:`ConsistencyViolation` records; empty on a clean run
    violations: Tuple = field(default=())
    #: the structured tracer (``None`` unless the system's config sets
    #: ``tracing``); export with :func:`repro.obs.write_chrome_trace`
    tracer: Optional[Tracer] = None


class _Observer:
    """Fans node-level run events out to the write log and the monitor.

    Attached to the nodes only when recovery or monitoring is active
    (pay-for-what-you-use: otherwise the hooks stay ``None`` and the hot
    paths skip them entirely).
    """

    __slots__ = ("write_log", "monitor")

    def __init__(self, write_log: Optional[WriteLog],
                 monitor: Optional[ConsistencyMonitor]):
        self.write_log = write_log
        self.monitor = monitor

    def on_submit(self, op: Operation) -> None:
        if self.monitor is not None:
            self.monitor.on_submit(op)

    def on_complete(self, op: Operation) -> None:
        if self.monitor is not None:
            self.monitor.on_complete(op)

    def on_install(self, node: int, obj: int, value, time: float) -> None:
        if self.write_log is not None:
            self.write_log.on_install(node, obj, value, time)
        if self.monitor is not None:
            self.monitor.on_install(node, obj, value, time)

    def on_degraded_read(self, op: Operation) -> None:
        if self.monitor is not None:
            self.monitor.on_degraded_read(op)


class _ArrivalStream:
    """A workload's Poisson arrivals, posted to the scheduler one at a time.

    Each arrival posts the next one and submits its operation, so the
    event list holds one pending arrival instead of the whole stream.
    Every event still fires exactly as if all arrivals had been scheduled
    up front:

    * arrival times are the same sequential running sum of the gaps,
      taken once up front.  The gaps arrive as a list of Python floats
      (the same doubles numpy drew), so the whole run's clock —
      ``scheduler.now``, every event key, ``end_time`` and each
      operation's issue and completion time — is a plain ``float``,
      never a numpy scalar;
    * operation ids ``base + 1 .. base + n`` are reserved up front, so ids
      handed out in the meantime (cache ejects) do not move;
    * scheduler sequence numbers are reserved up front too, so arrivals
      break time ties as the pre-scheduled events did.
    """

    __slots__ = ("_nodes", "_scheduler", "_ops", "_times", "_op_base",
                 "_seq_base")

    def __init__(self, system: "DSMSystem", ops: List[Tuple[int, str, int]],
                 gaps: List[float]) -> None:
        self._nodes = system.nodes
        self._scheduler = system.scheduler
        self._ops = ops
        self._times = list(accumulate(gaps))
        self._op_base = system._next_op_id
        system._next_op_id += len(ops)
        self._seq_base = system.scheduler._reserve(len(ops))
        if ops:
            self._scheduler._post_at(self._times[0], self._arrive, 0,
                                     self._seq_base + 1)

    def _arrive(self, i: int) -> None:
        nxt = i + 1
        if nxt < len(self._ops):
            self._scheduler._post_at(self._times[nxt], self._arrive, nxt,
                                     self._seq_base + nxt + 1)
        node, kind, obj = self._ops[i]
        op_id = self._op_base + i + 1
        # positional: about half the cost of keywords on this slots
        # dataclass; the fields are op_id, node, kind, obj, issue_time
        # (set by submit) and params
        self._nodes[node].submit(
            Operation(op_id, node, kind, obj, 0.0, op_id))


def _build_tracer(system: "DSMSystem") -> Tracer:
    from ..obs.trace import Tracer
    tracer = Tracer(system.config.tracing, clock=system.scheduler)
    system.metrics.tracer = tracer
    return tracer


def _build_network(system: "DSMSystem") -> Network:
    """The fault-free FIFO fabric, or the reliable transport (which owns
    the faulty wire) with the fault plan's crash markers."""
    if system.reliability is None:
        network = Network(system.scheduler, latency=_HOP_LATENCY,
                          on_cost=system.metrics.record_message)
        # delivery events for the plain fabric come from the channel
        # itself; a ReliableNetwork reaches the tracer via metrics and
        # traces protocol-level deliveries instead.
        network.tracer = system.tracer
        return network
    from .reliable import ReliableNetwork
    network = ReliableNetwork(
        system.scheduler, latency=_HOP_LATENCY, metrics=system.metrics,
        faults=system.faults, partitions=system.partitions,
        config=system.reliability)
    if system.faults is not None:
        system._schedule_crash_markers()
    return network


def _build_nodes(system: "DSMSystem") -> Dict[int, SimNode]:
    return {
        node_id: SimNode(
            node_id, system.spec, system.M, system.scheduler,
            system.network, system.metrics, system.S, system.P,
            system.all_nodes, system.cluster,
            new_op=system._make_internal_op, cache=system.config.cache,
            cache_overlay=system.spec.quorum_based)
        for node_id in system.all_nodes
    }


def _build_membership(system: "DSMSystem") -> Optional[MembershipView]:
    """The quorum family's membership view and hedge policy, on every port.

    Without a reconfiguration plan or vote weights the view stays
    ``None`` and every quorum phase takes the static fixed-majority
    fast path.
    """
    config = system.config
    view = None
    if config.reconfig is not None or config.quorum_weights is not None:
        from .reconfig import MembershipView
        view = MembershipView(tuple(range(1, system.N + 2)),
                              config.quorum_weights)
    for node in system.nodes.values():
        for port in node.ports.values():
            port.membership = view
            port.hedge = config.hedge
    return view


def _build_reconfig(system: "DSMSystem") -> ReconfigManager:
    from .reconfig import ReconfigManager
    return ReconfigManager(system, system.config.reconfig)


def _build_monitor(system: "DSMSystem") -> ConsistencyMonitor:
    from .monitor import ConsistencyMonitor
    return ConsistencyMonitor()


def _wants_recovery(config: RunConfig, spec: ProtocolSpec) -> bool:
    """The sequencer family's recovery: a partition plan quarantines
    through it, and failover and amnesia crashes need it."""
    return not spec.quorum_based and (
        config.partitions is not None
        or (config.faults is not None
            and (config.failover or config.faults.has_amnesia)))


def _build_recovery(system: "DSMSystem") -> RecoveryManager:
    from .faults import FaultPlan
    from .recovery import RecoveryManager
    if system.partitions is not None:
        # the transport absorbs traffic to quarantined nodes instead of
        # retrying into a severed link forever
        system.network.quarantined = system.cluster.quarantined
    plan = system.faults if system.faults is not None else FaultPlan()
    return RecoveryManager(system, plan, system.config.failover)


def _wants_detector(config: RunConfig, spec: ProtocolSpec) -> bool:
    """The sequencer-side heartbeat detector, unless the partition plan
    sets ``detect=False``.

    The star family needs it under a partition plan, to quarantine and
    rejoin the cut-off nodes.  The quorum family needs no detector for
    liveness (quorum re-selection gives that), but under gray failures
    it gets a demote-only one (``recovery`` is ``None``, so it never
    quarantines) whose latency scoring feeds the demotion-aware quorum
    selection and hedge targeting.
    """
    needed = (config.gray_failure if spec.quorum_based
              else config.partitions is not None)
    return needed and (config.partitions is None or config.partitions.detect)


def _build_detector(system: "DSMSystem") -> FailureDetector:
    from .partition import FailureDetector, PartitionPlan
    # without a partition plan a links-free local plan supplies the
    # knobs' defaults; it is never stored as ``system.partitions`` (a
    # plan without links is no partition plan, and the plan-equality
    # fabric checks must keep seeing None)
    plan = (system.partitions if system.partitions is not None
            else PartitionPlan())
    detector = FailureDetector(system, plan)
    detector.start()
    return detector


def _always(config: RunConfig, spec: ProtocolSpec) -> bool:
    return True


class _Subsystem(NamedTuple):
    """One part of a :class:`DSMSystem`, built when ``wanted(config,
    spec)`` holds and stored as ``attr`` (``None`` when it is not built).

    ``rules`` pairs each knob that needs the protocol ``family``
    (``"quorum"`` or ``"sequencer"``) with the error a protocol of the
    other family raises.  ``build(system)`` imports the subsystem's
    module, so a run that does not build it never loads it.
    """

    attr: str
    wanted: Callable[[RunConfig, ProtocolSpec], bool]
    build: Callable[["DSMSystem"], object]
    family: Optional[str] = None
    rules: Tuple[Tuple[Callable[[RunConfig], bool], str], ...] = ()


#: the parts of a system in build order, which is the order they
#: schedule their first events in.  The membership entry states the
#: rules of every quorum knob, since a reconfiguration plan, vote weights
#: and hedging all act through the membership layer; the sequencer-
#: anchored recovery does not apply to the quorum family, whose replicas
#: must also be durable across crashes.
_SUBSYSTEMS = (
    _Subsystem("tracer", lambda c, s: c.tracing is not None, _build_tracer),
    _Subsystem("network", _always, _build_network),
    _Subsystem("nodes", _always, _build_nodes),
    _Subsystem(
        "membership",
        lambda c, s: (c.reconfig is not None or c.quorum_weights is not None
                      or c.hedge is not None),
        _build_membership, "quorum", (
            (lambda c: c.reconfig is not None,
             "has a fixed star membership; online reconfiguration "
             "(reconfig=) needs a quorum protocol"),
            (lambda c: c.quorum_weights is not None,
             "has no quorums to weight; quorum_weights= needs a quorum "
             "protocol"),
            (lambda c: c.hedge is not None,
             "has no quorum phases to hedge; hedge= needs a quorum "
             "protocol"),
        )),
    _Subsystem("reconfig", lambda c, s: c.reconfig is not None,
               _build_reconfig),
    _Subsystem("monitor", lambda c, s: c.monitor, _build_monitor),
    _Subsystem(
        "recovery", _wants_recovery, _build_recovery, "sequencer", (
            (lambda c: c.failover,
             "has no sequencer to fail over; drop failover=True (a "
             "majority of replicas is sufficient for liveness)"),
            (lambda c: c.faults is not None and c.faults.has_amnesia,
             "requires durable replicas: amnesia crash semantics would "
             "forget quorum-acknowledged state; use "
             "crash_semantics='durable'"),
        )),
    _Subsystem("detector", _wants_detector, _build_detector),
)


class DSMSystem:
    """``N`` clients plus a sequencer running one coherence protocol.

    Args:
        protocol: a :class:`ProtocolSpec` or registry name.
        N: number of clients (nodes ``1 .. N``; the sequencer is ``N + 1``).
        M: number of shared objects.
        S: user-information transfer cost parameter.
        P: write-parameter transfer cost parameter.
        config: the :class:`~repro.sim.config.RunConfig` whose fault,
            partition, reliability, failover, monitor, tracing,
            reconfiguration, vote-weight, hedge and cache settings build
            the fabric and subsystems (see its field docs); ``None``
            means ``RunConfig()``, the paper's fault-free fabric.  The
            system runs rewound copies of the plans
            (``dataclasses.replace(plan)``), so one config builds any
            number of identical systems.

    The constructor checks the config against the protocol family, then
    builds the parts ``_SUBSYSTEMS`` declares, in its order; a part the
    config does not ask for is ``None``.
    """

    tracer: Optional[Tracer]
    network: Network
    nodes: Dict[int, SimNode]
    membership: Optional[MembershipView]
    reconfig: Optional[ReconfigManager]
    monitor: Optional[ConsistencyMonitor]
    recovery: Optional[RecoveryManager]
    detector: Optional[FailureDetector]

    def __init__(
        self,
        protocol,
        N: int,
        M: int = 1,
        S: float = 100.0,
        P: float = 30.0,
        config: Optional[RunConfig] = None,
    ):
        if config is None:
            config = RunConfig()
        elif not isinstance(config, RunConfig):
            raise TypeError(
                f"config must be a RunConfig or None, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.spec: ProtocolSpec = (
            protocol if isinstance(protocol, ProtocolSpec) else get_protocol(protocol)
        )
        if N < 1:
            raise ValueError("need at least one client")
        if M < 1:
            raise ValueError("need at least one shared object")
        for sub in _SUBSYSTEMS:
            for is_set, error in sub.rules:
                if is_set(config) and self.spec.quorum_based != (
                        sub.family == "quorum"):
                    raise ValueError(f"{self.spec.name} {error}")
        # each system rewinds the config's plans to their seeds, so one
        # config builds any number of identical systems
        self.faults = (None if config.faults is None
                       else replace(config.faults))
        self.partitions = (None if config.partitions is None
                           else replace(config.partitions))
        # the node universe: the initial members 1..N+1 plus any nodes the
        # reconfiguration plan will join later (they exist from the start
        # as empty replicas, but are not members until their epoch commits).
        universe = N + 1
        if config.reconfig is not None:
            config.reconfig.validate_membership(N + 1)
            universe = max(universe, config.reconfig.max_node())
        if config.quorum_weights is not None:
            bad = sorted(n for n, _ in config.quorum_weights
                         if not 1 <= n <= universe)
            if bad:
                raise ValueError(
                    f"quorum_weights name unknown nodes {bad} "
                    f"(the node universe is 1..{universe})"
                )
        if self.faults is not None:
            self.faults.validate_nodes(universe)
        if self.partitions is not None:
            self.partitions.validate_nodes(universe)
        self.N = N
        self.M = M
        self.S = float(S)
        self.P = float(P)
        self.scheduler = EventScheduler()
        self.metrics = Metrics()
        self.reliability = config.resolved_reliability
        #: shared, mutable sequencer-role view (reassigned by failover)
        self.cluster = ClusterView(N + 1)
        self.all_nodes: Tuple[int, ...] = tuple(range(1, universe + 1))
        self._next_op_id = 0
        # pay-for-what-you-use: an unbuilt subsystem's attribute is None,
        # so each of its hook points is a single attribute check
        for sub in _SUBSYSTEMS:
            setattr(self, sub.attr, sub.build(self)
                    if sub.wanted(config, self.spec) else None)
        if self.monitor is not None or self.recovery is not None:
            observer = _Observer(self.write_log, self.monitor)
            for node in self.nodes.values():
                node.observer = observer
                node.recovery = self.recovery
                for port in node.ports.values():
                    port.install_hook = port.value_installed

    @property
    def write_log(self) -> Optional[WriteLog]:
        """The recovery subsystem's durable write log (``None`` without
        recovery)."""
        return self.recovery.log if self.recovery is not None else None

    @property
    def sequencer_id(self) -> int:
        """The node currently acting as sequencer (dynamic under failover)."""
        return self.cluster.sequencer_id

    def _make_internal_op(self, kind: str, node: int, obj: int) -> Operation:
        """Factory for system-generated operations (cache evictions)."""
        self._next_op_id += 1
        return Operation(self._next_op_id, node, kind, obj)

    def _schedule_crash_markers(self) -> None:
        """Count crash/recovery edges in metrics as simulation time passes.

        The marker events only touch counters — they cannot perturb the
        simulation itself (relative scheduling order of all other events
        is preserved).
        """
        stats = self.metrics.reliability

        def bump(node: int, edge_kind: str) -> None:
            if edge_kind == "crash":
                stats.crashes += 1
            else:
                stats.recoveries += 1
            tracer = self.metrics.tracer
            if tracer is not None:
                tracer.system_event(edge_kind, src=node,
                                    detail=f"node {node}")

        for time, node, edge_kind in self.faults.crash_edges():
            self.scheduler.schedule_at(
                time, (lambda n=node, k=edge_kind: bump(n, k))
            )

    def _check_run_config_fabric(self, config: RunConfig) -> None:
        """Reject a run config whose fabric differs from this system's.

        The fabric and subsystems are built from :attr:`config` at
        construction and cannot be swapped per run; silently ignoring a
        different setting would mis-measure, so every fabric field of the
        run config must equal the system's.
        """
        mismatched = [name for name in _FABRIC_FIELDS
                      if getattr(config, name) != getattr(self.config, name)]
        if mismatched:
            raise ValueError(
                f"RunConfig {', '.join(mismatched)} does not match the "
                "config this DSMSystem was built with; run it with the "
                "system's config or build a DSMSystem(config=...) from "
                "this one"
            )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def submit(self, node: int, kind: str, obj: int = 1,
               params: Optional[int] = None, callback=None) -> Operation:
        """Submit one operation right now (manual driving, examples/tests).

        ``kind`` is ``"read"``, ``"write"`` or ``"eject"`` (drop the
        node's replica, a Section 6 extension); any other kind raises
        :class:`ValueError`.  ``callback(op)`` fires on completion, which
        lets callers chain closed-loop sequences of operations.
        """
        if kind not in _SUBMIT_KINDS:
            raise ValueError(
                f"unknown operation kind {kind!r}; expected one of "
                f"{', '.join(_SUBMIT_KINDS)}"
            )
        self._next_op_id += 1
        op = Operation(
            op_id=self._next_op_id,
            node=node,
            kind=kind,
            obj=obj,
            params=params if params is not None else self._next_op_id,
            callback=callback,
        )
        self.nodes[node].submit(op)
        return op

    def settle(self, max_events: int = 10_000_000) -> None:
        """Run the event list dry (all in-flight work drains)."""
        self.scheduler.run(max_events=max_events)
        if len(self.scheduler):  # pragma: no cover - safety net
            raise RuntimeError("simulation did not quiesce within max_events")

    def run_workload(
        self,
        workload: Workload,
        config: Optional[RunConfig] = None,
    ) -> SimulationResult:
        """Run a stochastic workload and measure steady-state ``acc``.

        Operations arrive as a Poisson stream (exponential gaps with mean
        ``config.mean_gap``) whose ``(node, kind, object)`` mix is the
        workload's trial distribution; per-node order is preserved by the
        local queues.  ``acc`` is averaged over the operations completed
        after the first ``config.warmup`` (paper Section 5.2: 500 warm-up
        operations, about 1500 measured).

        Args:
            workload: the operation source.
            config: a :class:`~repro.sim.config.RunConfig` carrying
                ops/warmup/seed/mean_gap/max_events; ``None`` runs the
                system's own :attr:`config`.  Every other field must equal
                the system's (the fabric is fixed at construction).

        The pre-1.2 positional forms (``run_workload(w, 4000, 500)``,
        ``run_workload(w, num_ops=4000)``) were removed; they now raise
        :class:`TypeError`.
        """
        if config is None:
            config = self.config
        elif not isinstance(config, RunConfig):
            raise TypeError(
                "run_workload takes a RunConfig, got "
                f"{type(config).__name__}; the pre-1.2 "
                "num_ops/warmup/seed arguments were removed — pass "
                "config=RunConfig(ops=4000, warmup=500, seed=0)"
            )
        self._check_run_config_fabric(config)
        num_ops = config.ops
        warmup = config.resolved_warmup
        if workload.M > self.M:
            raise ValueError(
                f"workload uses {workload.M} objects, system has {self.M}"
            )
        rng = default_rng(config.seed)
        ops = workload.sample(rng, num_ops)
        gaps = rng.exponential(config.mean_gap, size=num_ops).tolist()
        _ArrivalStream(self, ops, gaps)  # posts the first arrival
        self.scheduler.run(max_events=config.max_events)
        incomplete = max(0, num_ops - self.metrics.completed_count)
        lost = self.metrics.recovery.ops_lost
        if self.spec.quorum_based:
            # parked quorum operations (re-selection exhausted inside an
            # unhealed partition) stay in their port's in-flight table,
            # with program-order successors queued behind the closed
            # gate: both are stalled, not deadlocked.
            stalled = sum(
                len(port.local_queue) + len(port.inflight)
                for node in self.nodes.values()
                for port in node.ports.values()
            )
        else:
            stalled = (self.recovery.stalled_ops()
                       if self.recovery is not None else 0)
        self.metrics.partition.ops_stalled = stalled
        if (incomplete > lost + stalled
                and self.metrics.reliability.delivery_failures == 0):
            # nothing was abandoned, no node died with its operations and
            # nothing is stalled behind a partition quarantine: either the
            # max_events safety net cut the run short (events are still
            # pending) or the event list drained — a genuine protocol hang.
            pending = len(self.scheduler)
            if pending:
                raise RuntimeError(
                    f"run stopped at max_events={config.max_events} "
                    f"({self.scheduler.executed} events executed, "
                    f"{pending} pending) with only "
                    f"{self.metrics.completed_count}/{num_ops} operations "
                    "completed"
                )
            raise RuntimeError(  # pragma: no cover
                f"only {self.metrics.completed_count}/{num_ops} operations "
                "completed — protocol deadlock?"
            )
        # under graceful degradation (a retry budget ran out, wedging the
        # affected channel, or an amnesia crash killed submissions) the
        # loss is reported instead of hanging; with no completions left
        # in the window, acc degrades to NaN.
        if self.metrics.completed_count > warmup:
            acc = self.metrics.average_cost(skip=warmup)
        else:
            acc = float("nan")
        measured = max(0, min(num_ops, self.metrics.completed_count) - warmup)
        # retry-budget exhaustions are always surfaced as structured
        # DeliveryViolation records (satellite of the degradation story:
        # a wedged channel is a reliability-contract violation, not just
        # a counter).
        violations: Tuple = tuple(getattr(self.network, "violations", ()))
        if (self.monitor is not None
                and self.metrics.reliability.delivery_failures == 0):
            # with a wedged channel the protocols legitimately cannot keep
            # replicas consistent; the monitor only judges runs the
            # reliability layer carried through.
            violations += tuple(self.consistency_report())
        return SimulationResult(
            protocol=self.spec.name,
            total_ops=num_ops,
            warmup=warmup,
            measured=measured,
            acc=acc,
            messages=self.network.messages_sent,
            end_time=self.scheduler.now,
            metrics=self.metrics,
            incomplete_ops=incomplete,
            violations=violations,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # inspection / invariants
    # ------------------------------------------------------------------

    def copy_state(self, node: int, obj: int = 1) -> str:
        """The copy state of ``obj`` at ``node``."""
        return self.nodes[node].process_for(obj).state

    def copy_value(self, node: int, obj: int = 1):
        """The simulated user-information content of a copy."""
        return self.nodes[node].process_for(obj).value

    def authoritative_value(self, obj: int = 1):
        """The value the protocol's serialization point holds for ``obj``.

        For the fixed-home protocols this is the sequencer's copy (recalled
        from the dirty owner if the sequencer is INVALID); for the
        migrating-owner protocols it is the owner's copy.
        """
        name = self.spec.name
        owner_states = self.spec.owner_states
        if self.spec.quorum_based:
            # the serialization point is the logical timestamp order: the
            # authoritative value is the one held with the maximum
            # timestamp across the replicas (any majority is guaranteed
            # to contain it once the writing operation completed).
            best = max(
                (self.nodes[n].process_for(obj) for n in self.all_nodes),
                key=lambda proc: proc.ts,
            )
            return best.value
        if owner_states:
            # a partition-quarantined node keeps its (stale) replica for
            # degraded serving, so it may still look like an owner; the
            # epoch reset at quarantine re-canonicalized ownership among
            # the reachable nodes, and only those count.
            quarantined = self.cluster.quarantined
            owners = [
                n for n in self.all_nodes
                if n not in quarantined
                and self.copy_state(n, obj) in owner_states
            ]
            if len(owners) != 1:
                raise AssertionError(
                    f"{name}: expected exactly one owner for object {obj}, "
                    f"found {owners} (system not quiescent?)"
                )
            return self.copy_value(owners[0], obj)
        seq = self.nodes[self.sequencer_id].process_for(obj)
        if seq.state == "VALID":
            return seq.value
        owner = getattr(seq, "owner", None)
        if owner is None:
            raise AssertionError(
                f"{name}: sequencer INVALID without an owner for {obj}"
            )
        return self.copy_value(owner, obj)

    def _down_nodes(self) -> set:
        """Nodes whose crash window covers the current simulation time."""
        # only the reliable transport has a timeline, and only when faulty
        timeline = getattr(self.network, "timeline", None)
        if timeline is None:
            return set()
        return set(timeline.at(self.scheduler.now)[0])

    def _excluded_nodes(self) -> set:
        """Nodes whose replicas the quiescence checks must skip.

        Down nodes cannot serve reads; partition-quarantined nodes hold
        deliberately stale replicas (their staleness is the quarantine's
        *accounted* degradation, not a coherence bug).
        """
        return self._down_nodes() | self.cluster.quarantined

    def check_coherence(self) -> None:
        """Assert quiescent coherence for every object.

        Every copy whose state serves local reads must equal the
        authoritative value.  Call only after :meth:`settle` (or a
        completed :meth:`run_workload`) — in-flight updates legitimately
        make copies differ transiently.  Nodes still inside a crash
        window are skipped: a dead replica cannot serve reads, and its
        pending invalidations are legitimately undelivered.
        """
        hit_states = self.spec.hit_states
        excluded = self._excluded_nodes()
        for obj in range(1, self.M + 1):
            truth = self.authoritative_value(obj)
            for node in self.all_nodes:
                if node in excluded:
                    continue
                proc = self.nodes[node].process_for(obj)
                if proc.state in hit_states and proc.value != truth:
                    raise AssertionError(
                        f"{self.spec.name}: node {node} object {obj} state "
                        f"{proc.state} holds {proc.value!r}, expected {truth!r}"
                    )

    def consistency_report(self) -> List[ConsistencyViolation]:
        """Run the consistency monitor's quiescence checks.

        Returns all findings (empty on a clean run); never raises on a
        violation — degraded runs produce structured reports.  Requires
        the system's config to have ``monitor=True`` and the system to be
        quiescent (:meth:`settle` or a finished :meth:`run_workload`).
        """
        if self.monitor is None:
            raise ValueError(
                "consistency monitoring is off; build the system with "
                "config=RunConfig(monitor=True)"
            )
        from .monitor import ConsistencyViolation

        hit_states = self.spec.hit_states
        excluded = self._excluded_nodes()
        violations: List[ConsistencyViolation] = []
        authoritative: Dict[int, object] = {}
        replicas: Dict[int, List[Tuple[int, str, object, bool]]] = {}
        for obj in range(1, self.M + 1):
            try:
                truth = self.authoritative_value(obj)
            except AssertionError as exc:
                violations.append(ConsistencyViolation(
                    kind="divergence",
                    obj=obj,
                    detail=f"no authoritative value: {exc}",
                ))
                continue
            authoritative[obj] = truth
            replicas[obj] = [
                (node, proc.state, proc.value, proc.state in hit_states)
                for node in self.all_nodes
                if node not in excluded
                for proc in (self.nodes[node].process_for(obj),)
            ]
        violations.extend(self.monitor.check(authoritative, replicas))
        return violations

    def total_attributed_cost(self) -> float:
        """Sum of per-operation costs (must equal total message cost)."""
        return sum(r.cost for r in self.metrics.records())

    def publish_metrics(self, registry, skip: int = 0,
                        take: Optional[int] = None,
                        window: Optional[int] = None) -> None:
        """Publish a full snapshot into a :class:`repro.obs.MetricsRegistry`.

        Combines :meth:`Metrics.publish` (latency/cost histograms, ``acc``
        shares, subsystem counters) with system-level gauges: scheduler
        progress, local-queue depths, transport in-flight frames and the
        quarantine census.
        """
        self.metrics.publish(registry, skip=skip, take=take, window=window)
        registry.gauge("sim.events_executed",
                       "events executed by the scheduler").set(
            self.scheduler.executed)
        registry.gauge("sim.events_pending",
                       "live events still scheduled").set(len(self.scheduler))
        depths = [
            len(port.local_queue)
            for node in self.nodes.values()
            for port in node.ports.values()
        ]
        registry.gauge("sim.queue_depth.total",
                       "queued local requests across all ports").set(
            sum(depths))
        registry.gauge("sim.queue_depth.max",
                       "deepest local queue").set(max(depths) if depths else 0)
        in_flight = getattr(self.network, "in_flight", None)
        if in_flight is not None:
            registry.gauge("sim.transport.in_flight",
                           "unacknowledged data frames").set(in_flight)
        registry.gauge("sim.quarantined",
                       "nodes currently out of the view").set(
            len(self.cluster.quarantined))
