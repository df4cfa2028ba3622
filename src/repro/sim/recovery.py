"""Crash recovery: replica resynchronization and sequencer failover.

The paper's protocols assume nodes never lose state — a crash in the
PR-2 fault model (:mod:`repro.sim.faults`) only silences a node's network
interface, and the reliable transport carries the protocols through the
outage unchanged.  This module adds the recovery subsystem for the harder
failure modes:

* **amnesia crashes** (``CrashWindow(semantics="amnesia")``) wipe the
  node's volatile replica state.  The node's in-flight and queued
  operations are lost (its application process dies with it), and at
  rejoin the node is **quarantined** — its local queues stay closed while
  it resynchronizes against the sequencer's durable ordered write log —
  before it re-enters the protocol;
* **sequencer failover** (``RunConfig(failover=True)``): when the current
  sequencer crashes, the live node with the lowest index is elected the
  new sequencer under a bumped *epoch* number; the failed sequencer, if it
  ever returns, rejoins as an ordinary client (no failback).

Both are driven through a single primitive, the **epoch reset** (view
change), which restores the system to a canonical configuration:

1. the cluster epoch is bumped and the transport voids all in-flight
   frames (:meth:`~repro.sim.reliable.ReliableNetwork.advance_epoch`);
   frames already on the wire carry the old epoch and are dropped on
   receipt, so no stale traffic can leak into the new view;
2. completed fire-and-forget writes whose (voided) propagation never
   reached the serialization point are absorbed into the durable
   :class:`WriteLog` — a completed operation's effect is never lost;
3. every node's protocol processes are rebuilt fresh for its *current*
   role, and the authoritative value from the write log is installed
   into every fresh copy whose initial state serves reads (update
   protocols start clients readable; sequencers are always readable);
4. each live node's dispatched-but-incomplete operations are re-driven
   through its local queue ahead of the queued ones, preserving program
   order, so every surviving operation executes **exactly once** end to
   end even though the transport forgot its history.

Costs are charged through :meth:`Metrics.record_recovery_cost` — epoch
announcements (one bare token per other node), elections (one token per
live participant), standby snapshots (whole-copy transfer, ``S + 1`` per
object) and rejoin resynchronization (a one-token version probe per
object plus, for copies installed warm, the cheaper of an ordered-log
catch-up at ``P + 1`` per missed write and a whole-copy transfer at
``S + 1``).  A rejoining node that is itself the sequencer replays its
own stable log locally, which costs no communication.  Recovery traffic
serves the system rather than one operation, so it is amortized as the
separate ``recovery`` share of
:meth:`~repro.sim.metrics.Metrics.average_cost_breakdown`.

Pay-for-what-you-use: :class:`DSMSystem` builds a :class:`RecoveryManager`
only for a star protocol with a partition plan (the failure detector
quarantines through it) or with a fault plan that has amnesia windows or
``failover=True``, so durable-only fault runs stay bit-identical to the
PR-2 simulator.  ``failover=True`` without a fault plan builds nothing:
no crash can reach the sequencer.

**Bounded replica caches** (:mod:`repro.sim.cache`): an evicted copy is a
capacity decision, not a failure — recovery must not resurrect it.  Every
rebuild/rejoin path consults :meth:`ReplicaCache.is_evicted` and leaves
evicted copies non-resident (``INVALID``), and :meth:`_price_resync`
skips them entirely (no version probe, no transfer): a bounded rejoiner
resynchronizes only its resident set, which is exactly where partial
replication beats full replication under churn.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..machines.message import ParamPresence
from ..protocols.base import Operation
from .faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import SimNode
    from .system import DSMSystem

__all__ = ["WriteLog", "RecoveryManager"]


class WriteLog:
    """The sequencer's durable ordered write log (one per system).

    Records, per object, the sequence of *distinct* written values in the
    order they first became visible anywhere in the system.  Written
    values are unique per write operation (the simulator writes the
    ``op_id``), so "first install" identifies the write itself: later
    installs of the same value at other replicas are propagation, not new
    writes, and are ignored.  Under the per-object serialization every
    protocol provides, first-install order *is* the serialization order.

    The log is the recovery subsystem's ground truth: :meth:`current`
    yields the authoritative value installed into rebuilt copies at an
    epoch reset, and :meth:`version` prices ordered-log catch-up at
    rejoin.  Conceptually it lives on the sequencer's stable storage
    (ISSUE: the sequencer's ordered log survives even amnesia crashes);
    the simulator keeps one global instance fed by the observer hooks.
    """

    def __init__(self) -> None:
        self._events: Dict[int, List[object]] = {}
        self._seen: Dict[int, Set[object]] = {}

    def on_install(self, node: int, obj: int, value: object,
                   time: float) -> None:
        """Observer hook: ``node`` installed ``value`` into its copy."""
        self.absorb(obj, value)

    def absorb(self, obj: int, value: object) -> None:
        """Append ``value`` to ``obj``'s log unless already recorded.

        Also the absorption path for completed fire-and-forget writes
        whose in-flight propagation an epoch reset voided: the write is
        serialized at the reset instead (sound, because per-channel FIFO
        guarantees no read of an older value could have completed after
        the write in program order).
        """
        # every copy starts at 0, so 0 counts as seen: a late install of
        # it (a read grant overtaken by a newer write) is not a write
        seen = self._seen.setdefault(obj, {0})
        if value in seen:
            return
        seen.add(value)
        self._events.setdefault(obj, []).append(value)

    def current(self, obj: int) -> object:
        """The authoritative (latest serialized) value of ``obj``."""
        events = self._events.get(obj)
        return events[-1] if events else 0

    def version(self, obj: int) -> int:
        """Number of distinct writes serialized for ``obj``."""
        return len(self._events.get(obj, ()))


class RecoveryManager:
    """Drives amnesia-crash recovery, rejoin and sequencer failover.

    Built by :class:`~repro.sim.system.DSMSystem` for a star protocol
    with a partition plan, or with a fault plan and amnesia windows or
    ``failover``; it keeps the system's :class:`WriteLog` as :attr:`log`.
    It schedules its crash/rejoin events at construction time (the
    scheduler runs init-scheduled events before runtime-scheduled ones
    at the same instant, so recovery actions are deterministic).
    """

    def __init__(self, system: "DSMSystem", plan: FaultPlan,
                 failover: bool) -> None:
        self.nodes = system.nodes
        self.cluster = system.cluster
        self.scheduler = system.scheduler
        self.network = system.network
        self.metrics = system.metrics
        self.spec = system.spec
        self.plan = plan
        self.log = WriteLog()
        self.hit_states = system.spec.hit_states
        self.S = system.S
        self.P = system.P
        self.latency = system.network.latency
        self.failover = failover
        #: nodes currently quarantined (rejoining, local queues closed)
        self._quarantined: Set[int] = set()
        #: the subset quarantined by the failure detector (partitioned);
        #: their replicas are kept stale for degraded serving and the
        #: detector — not a crash edge — drives their rejoin
        self._partitioned: Set[int] = set()
        #: per-object write-log versions snapshotted at partition
        #: quarantine, so rejoin catch-up is priced on writes actually
        #: missed rather than the whole history
        self._partition_base: Dict[int, Dict[int, int]] = {}
        #: quarantine start times (partition_time accounting)
        self._partition_started: Dict[int, float] = {}
        #: ex-sequencers awaiting rejoin as clients (no failback)
        self._demoted: Set[int] = set()
        for w in plan.crashes:
            self.scheduler.schedule_at(w.start, (lambda w=w: self._on_crash(w)))
            if math.isfinite(w.end):
                self.scheduler.schedule_at(
                    w.end, (lambda w=w: self._on_recover(w))
                )

    # ------------------------------------------------------------------
    # crash edges
    # ------------------------------------------------------------------

    def submission_lost(self, op: Operation) -> bool:
        """Whether a submission at ``op.node`` dies with an amnesia crash.

        During a durable outage the node's application keeps running
        (only its network interface is dead), so submissions queue as
        before; during an amnesia outage the whole node is dead and the
        operation is lost (counted in ``RecoveryStats.ops_lost``).
        """
        now = self.scheduler.now
        for w in self.plan.crashes:
            if (w.node == op.node and w.semantics == "amnesia"
                    and w.covers(now)):
                self.metrics.recovery.ops_lost += 1
                return True
        return False

    def _on_crash(self, w) -> None:
        if w.node == self.cluster.sequencer_id and self.failover:
            self._failover(w)
        elif w.semantics == "amnesia":
            # the node's volatile state (and application) is gone: lose
            # its pending operations and change the view so in-flight
            # traffic involving the dead node cannot confuse the rebuilt
            # protocol processes.
            self._lose_ops(self.nodes[w.node])
            self._epoch_reset()
        # durable crash without failover: the PR-2 behavior — the
        # transport retries through the outage; nothing to do here.

    def _failover(self, w) -> None:
        old = self.cluster.sequencer_id
        now = self.scheduler.now
        down = self.network.timeline.at(now)[0]
        live = [
            n for n in self.nodes
            if n != old and n not in down and n not in self._quarantined
        ]
        if not live:  # pragma: no cover - degenerate: nobody to elect
            return
        new = min(live)  # deterministic standby election: lowest live id
        self.metrics.recovery.failovers += 1
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event(
                "failover", src=old, dst=new,
                detail="sequencer %d -> %d (%d live)" % (old, new, len(live)),
            )
        self._demoted.add(old)
        # the sequencer role dies with the node: its pending operations
        # are lost regardless of crash semantics (it returns as a client).
        self._lose_ops(self.nodes[old])
        self.cluster.sequencer_id = new
        # election round: one token per live participant, plus the new
        # sequencer fetching the standby snapshot (whole copy per object).
        num_objects = len(self.nodes[new].ports)
        self.metrics.record_recovery_cost(
            len(live) + num_objects * (self.S + 1.0), kind="election"
        )
        self._epoch_reset()

    def _lose_ops(self, node: "SimNode") -> None:
        lost = 0
        for port in node.ports.values():
            lost += len(port.inflight) + len(port.local_queue)
            port.inflight.clear()
            port.local_queue.clear()
        self.metrics.recovery.ops_lost += lost

    # ------------------------------------------------------------------
    # partition quarantine (driven by the failure detector)
    # ------------------------------------------------------------------

    def is_quarantined(self, node_id: int) -> bool:
        """Whether ``node_id`` is quarantined (any cause)."""
        return node_id in self._quarantined

    def is_partition_quarantined(self, node_id: int) -> bool:
        """Whether ``node_id`` is quarantined by the failure detector."""
        return node_id in self._partitioned

    def stalled_ops(self) -> int:
        """Local operations gated at currently quarantined nodes.

        These are stalled, not lost: the node's application issued them
        but the partition (or an unfinished rejoin) keeps them queued.
        ``run_workload`` counts them as legal incompleteness.
        """
        total = 0
        for node_id in self._quarantined:
            for port in self.nodes[node_id].ports.values():
                total += len(port.local_queue) + len(port.inflight)
        return total

    def quarantine_partitioned(self, node_id: int, policy: str) -> None:
        """Evict an unreachable node from the view (detector suspicion).

        The node's dispatched operations are moved back to its queue head
        in program order — stalled, not killed (the node is alive, just
        unreachable) — its local gate closes, the transport starts
        absorbing traffic addressed to it, and an epoch reset
        re-canonicalizes ownership among the reachable nodes so nothing
        ever awaits the evicted node.  Its replicas are deliberately
        *not* rebuilt: under ``policy="serve_local_reads"`` queue-head
        reads are answered from the stale copies, with monitor-visible
        staleness accounting.
        """
        if node_id in self._quarantined:
            return
        node = self.nodes[node_id]
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event("quarantine", src=node_id,
                                detail="node %d partitioned (policy=%s)"
                                % (node_id, policy))
        self._quarantined.add(node_id)
        self._partitioned.add(node_id)
        self.cluster.quarantined.add(node_id)
        self._partition_started[node_id] = self.scheduler.now
        self._partition_base[node_id] = {
            obj: self.log.version(obj) for obj in node.ports
        }
        degraded = policy == "serve_local_reads"
        for port in node.ports.values():
            inflight = list(port.inflight.values())
            port.inflight.clear()
            for op in reversed(inflight):
                port.local_queue.appendleft(op)
            port.local_enabled = False
            port.degraded_reads = degraded
        self._epoch_reset()
        if degraded:
            for port in node.ports.values():
                port.pump()

    def rejoin_partitioned(self, node_id: int) -> None:
        """Drive a healed partition-quarantined node through resync rejoin.

        Called by the failure detector when probes reach the node again.
        The stale replicas are discarded and the node walks the standard
        quarantine-rejoin path (:meth:`_finish_rejoin`), with catch-up
        priced on the writes serialized since its quarantine snapshot.
        """
        if node_id not in self._partitioned:
            return
        self._partitioned.discard(node_id)
        node = self.nodes[node_id]
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event("rejoin", src=node_id,
                                detail="node %d partition healed" % node_id)
        stats = self.metrics.partition
        stats.rejoins += 1
        started = self._partition_started.pop(node_id, None)
        if started is not None:
            stats.partition_time += self.scheduler.now - started
        for obj, port in node.ports.items():
            port.degraded_reads = False
            port.local_enabled = False
            self._fresh_process(node, obj, port)
        delay = 2.0 * self.latency  # probe the log, fetch the catch-up
        self.metrics.recovery.quarantine_time += delay
        self.scheduler.schedule(
            delay, (lambda: self._finish_rejoin(node))
        )

    # ------------------------------------------------------------------
    # rejoin
    # ------------------------------------------------------------------

    def _on_recover(self, w) -> None:
        node_id = w.node
        demoted = node_id in self._demoted
        if w.semantics != "amnesia" and not demoted:
            return  # durable rejoin: state survived, retries catch it up
        self._demoted.discard(node_id)
        node = self.nodes[node_id]
        if node_id in self._partitioned:
            # the node came back from the crash cold (amnesia wiped its
            # replicas) but is still partition-quarantined: rebuild its
            # ports fresh, drop the catch-up baseline (it now needs a
            # full resync) and leave the rejoin to the failure detector.
            self._partition_base.pop(node_id, None)
            for obj, port in node.ports.items():
                port.degraded_reads = False  # the stale copy is gone
                port.local_enabled = False
                self._fresh_process(node, obj, port)
            return
        # quarantine: the node is back on the network but must not serve
        # local operations until resynchronized.  Its ports are rebuilt
        # immediately for the node's *current* role, so straggler frames
        # retried during the outage meet role-correct fresh processes.
        # Copies whose fresh state serves reads (the sequencer's always
        # does) get the authoritative value right away: straggler frames
        # arriving before the rejoin completes must never be answered
        # from the wiped initial value.
        self._quarantined.add(node_id)
        for obj, port in node.ports.items():
            port.local_enabled = False
            process = self._fresh_process(node, obj, port)
            if process.state in self.hit_states:
                process.value = self.log.current(obj)
        delay = 2.0 * self.latency  # probe the log, fetch the snapshot
        self.metrics.recovery.quarantine_time += delay
        self.scheduler.schedule(
            delay, (lambda: self._finish_rejoin(node))
        )

    def _finish_rejoin(self, node: "SimNode") -> None:
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event("rejoin_complete", src=node.node_id,
                                detail="node %d back in view" % node.node_id)
        self._price_resync(node)
        self._quarantined.discard(node.node_id)
        self.cluster.quarantined.discard(node.node_id)
        warm_state = self._warm_state()
        is_client = node.node_id != self.cluster.sequencer_id
        self._epoch_reset(pump=False)
        if is_client and warm_state is not None:
            # warm rejoin: install the fetched snapshot readable.  Sound
            # only for protocols that declare it (writes reach every node
            # unconditionally — see ProtocolProcess.WARM_REJOIN_STATE).
            # Copies the node's bounded cache evicted stay non-resident:
            # eviction is a capacity decision, not damage to repair.
            for obj, port in node.ports.items():
                if node.cache is not None and node.cache.is_evicted(obj):
                    continue
                proc = port.process
                if proc.state not in self.hit_states:
                    proc.state = warm_state
                    proc.value = self.log.current(obj)
        self._pump_all()

    def _price_resync(self, node: "SimNode") -> None:
        """Charge the rejoiner's resynchronization transfers.

        The rejoining sequencer replays its own stable log — free.  A
        client probes the sequencer's log head per object (one token) and,
        for every copy it installs readable (warm rejoin, or a protocol
        whose fresh client state already serves reads), transfers the
        cheaper of an ordered-log catch-up (``P + 1`` per missed write —
        the whole history, since amnesia wiped the replica) and a whole
        copy (``S + 1``).
        """
        base = self._partition_base.pop(node.node_id, None)
        if node.node_id == self.cluster.sequencer_id:
            return
        warm_state = self._warm_state()
        cost = 0.0
        stats = self.metrics.recovery
        for obj, port in node.ports.items():
            if node.cache is not None and node.cache.is_evicted(obj):
                # a bounded rejoiner resynchronizes only its resident
                # set: evicted copies are neither probed nor transferred.
                continue
            cost += 1.0  # version probe: a bare token to the sequencer
            warm = (warm_state is not None
                    or port.process.state in self.hit_states)
            if warm:
                missed = self.log.version(obj)
                if base is not None:
                    # partition rejoin: state survived, so catch-up only
                    # covers writes serialized since the quarantine.
                    missed = max(0, missed - base.get(obj, 0))
                cost += min(missed * (self.P + 1.0), self.S + 1.0)
                stats.resync_objects += 1
        stats.resync_cost += cost
        self.metrics.record_recovery_cost(cost, kind="resync")

    def _warm_state(self) -> Optional[str]:
        """The protocol's warm-rejoin client state, if it declares one.

        ``client_factory`` may be a bare class or a closure over one, so
        the attribute is looked up defensively.
        """
        return getattr(self.spec.client_factory, "WARM_REJOIN_STATE", None)

    # ------------------------------------------------------------------
    # epoch reset (view change)
    # ------------------------------------------------------------------

    def _epoch_reset(self, pump: bool = True) -> None:
        """Restore the system to a canonical configuration (new view)."""
        metrics = self.metrics
        metrics.recovery.epoch_resets += 1
        self.cluster.epoch += 1
        tracer = metrics.tracer
        if tracer is not None:
            tracer.system_event("epoch_reset",
                                detail="epoch %d" % self.cluster.epoch)
        for frame in self.network.advance_epoch():
            self._absorb_voided(frame)
        for node in self.nodes.values():
            # partition-quarantined nodes keep their (stale) replicas for
            # degraded serving; their gate is closed and their dispatched
            # ops were already re-queued at quarantine, so skipping the
            # rebuild loses nothing.
            if node.node_id in self._partitioned:
                continue
            self._rebuild_node(node)
        # epoch announcement: one bare token to every other node.
        metrics.record_recovery_cost(float(len(self.nodes) - 1),
                                     kind="epoch_announce")
        if pump:
            self._pump_all()

    def _absorb_voided(self, frame) -> None:
        """Keep a voided completed write durable (docstring: step 2)."""
        msg = frame.msg
        if (msg is None or msg.op_id is None
                or msg.token.parameter_presence is not ParamPresence.WRITE
                or not isinstance(msg.payload, dict)
                or "value" not in msg.payload):
            return
        try:
            record = self.metrics.op(msg.op_id)
        except KeyError:  # pragma: no cover - internal ops
            return
        if record.completed:
            self.log.absorb(msg.token.object_name, msg.payload["value"])

    def _rebuild_node(self, node: "SimNode") -> None:
        stats = self.metrics.recovery
        for obj, port in node.ports.items():
            # re-drive dispatched-but-incomplete operations: back into the
            # local queue *ahead* of the queued ones (program order).
            inflight = list(port.inflight.values())
            port.inflight.clear()
            for op in reversed(inflight):
                port.local_queue.appendleft(op)
            stats.ops_redriven += len(inflight)
            process = self._fresh_process(node, obj, port)
            if process.state in self.hit_states:
                # a fresh copy that serves reads must hold the
                # authoritative value, not the initial one.
                process.value = self.log.current(obj)
            if node.node_id not in self._quarantined:
                port.local_enabled = True

    def _fresh_process(self, node: "SimNode", obj: int, port) -> object:
        """Rebuild ``port``'s protocol process for the node's current role.

        Copies the node's bounded replica cache has evicted come back
        non-resident (``INVALID``) no matter what the protocol's fresh
        state would be — an epoch reset repairs failures, it does not
        grant capacity (``is_evicted`` is ``False`` for sequencers and
        quorum overlays, so load-bearing copies are never demoted).
        """
        process = self.spec.make_process(port)
        port.process = process
        if node.cache is not None and node.cache.is_evicted(obj):
            process.state = "INVALID"
        return process

    def _pump_all(self) -> None:
        for node in self.nodes.values():
            if node.node_id in self._quarantined:
                continue
            for port in node.ports.values():
                port.pump()
