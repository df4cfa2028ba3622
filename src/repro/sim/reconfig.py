"""Online replica-set reconfiguration: epoch-based membership change.

The paper (and every robustness layer built on it so far) assumes a fixed
set of ``N + 1`` replicas for the lifetime of a run.  This module lets a
run *change* the replica set of the sequencer-less quorum family
(:mod:`repro.protocols.sc_abd`) while client operations keep flowing:

* a :class:`ReconfigPlan` — a seeded, validated value object exactly like
  :class:`~repro.sim.faults.FaultPlan` — schedules
  :class:`MembershipChange` events (joins and leaves at a point in
  simulation time);
* at each change the system enters a **joint mode** in which every SC-ABD
  quorum phase must intersect a majority of *both* the old and the new
  replica set (:class:`MembershipView` owns the geometry, including the
  optional per-node vote weights of the weighted-majority extension);
* joining nodes catch up via a **versioned state transfer** priced with
  the :class:`~repro.sim.recovery.RecoveryManager` snapshot model (a
  one-token version probe per object plus the cheaper of an ordered
  catch-up at ``P + 1`` per missed write and a whole-copy transfer at
  ``S + 1``), retried with bounded exponential backoff when the donors
  are unreachable — the same discipline the unordered-datagram transport
  applies to its frames;
* the epoch **commits only when transfer settles**: the authoritative
  state is first established at a live majority of the new set (so every
  post-commit read quorum intersects a holder even after multi-node
  leaves), then the transport epoch is bumped
  (:meth:`~repro.sim.reliable.ReliableNetwork.advance_epoch` voids the
  old view's in-flight quorum traffic) and ops in flight across the
  boundary are **re-driven exactly once** (a fresh-generation phase
  restart; the operation still completes exactly once end to end);
* a transition whose transfer cannot settle within the retry budget is
  **aborted** — the view rolls back to the old membership, which is
  always safe because joint-mode writes reached a majority of the old
  set too.  Availability is never held hostage by a stuck transfer.

Costs are charged through
:meth:`~repro.sim.metrics.Metrics.record_reconfig_cost` and amortized as
the ``reconfig`` share of
:meth:`~repro.sim.metrics.Metrics.average_cost_breakdown`.

Pay-for-what-you-use: a plan that schedules no changes is normalized to
``None`` by :class:`~repro.sim.config.RunConfig` and
:class:`~repro.sim.system.DSMSystem`, so such runs stay bit-identical to
the static-membership simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..util import backoff_delay, field_kwargs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import DSMSystem

__all__ = [
    "TRANSFER_DELAY_CAP",
    "MembershipChange",
    "MembershipView",
    "ReconfigPlan",
    "ReconfigManager",
]

#: ceiling on the state-transfer retry backoff (mirrors the quorum
#: re-selection delay cap: beyond this, longer waits add latency without
#: adding safety)
TRANSFER_DELAY_CAP = 400.0


@dataclass(frozen=True, slots=True)
class MembershipChange:
    """One scheduled membership change: joins and leaves at time ``at``.

    ``joins`` and ``leaves`` are node indices; they must be disjoint and
    at least one of them non-empty (a change that changes nothing has no
    sensible meaning).  Whether the named nodes are legal joins/leaves
    depends on the membership at that point of the schedule and is
    checked by :meth:`ReconfigPlan.validate_membership`.
    """

    at: float
    joins: Tuple[int, ...] = ()
    leaves: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (self.at >= 0.0 and math.isfinite(self.at)):
            raise ValueError(
                f"change time must be finite and >= 0, got {self.at}"
            )
        joins = tuple(sorted(set(int(n) for n in self.joins)))
        leaves = tuple(sorted(set(int(n) for n in self.leaves)))
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)
        if not joins and not leaves:
            raise ValueError(
                "a membership change must join or leave at least one node"
            )
        overlap = set(joins) & set(leaves)
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} cannot join and leave in the "
                f"same membership change"
            )
        for node in joins + leaves:
            if node < 1:
                raise ValueError(f"node indices must be >= 1, got {node}")


@dataclass(frozen=True)
class ReconfigPlan:
    """A seeded, deterministic schedule of membership changes.

    Args:
        seed: seed identifying the schedule (part of the configuration
            identity, like :class:`~repro.sim.faults.FaultPlan`'s).
        changes: :class:`MembershipChange` instances or
            ``(at, joins, leaves)`` tuples.  Changes are kept sorted by
            time; two changes at the same instant are rejected (their
            relative order would be undefined).
    """

    seed: int = 0
    changes: Tuple[MembershipChange, ...] = ()

    def __post_init__(self) -> None:
        changes = tuple(sorted(
            (c if isinstance(c, MembershipChange) else MembershipChange(*c)
             for c in self.changes),
            key=lambda c: c.at,
        ))
        for prev, cur in zip(changes, changes[1:]):
            if cur.at == prev.at:
                raise ValueError(
                    f"two membership changes at the same time "
                    f"({cur.at:g}); merge them into one change"
                )
        object.__setattr__(self, "changes", changes)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def max_node(self) -> int:
        """The highest node index named anywhere in the schedule."""
        nodes = [n for c in self.changes for n in c.joins + c.leaves]
        return max(nodes) if nodes else 0

    def validate_membership(self, num_nodes: int) -> None:
        """Walk the schedule from the initial membership ``1 .. num_nodes``.

        Rejects joins of current members, leaves of non-members, and any
        change that would shrink the replica set below two members (a
        single replica has no majority-intersection story to tell).
        Called with ``N + 1`` by :class:`~repro.sim.system.DSMSystem`.
        """
        members = set(range(1, num_nodes + 1))
        for change in self.changes:
            rejoin = set(change.joins) & members
            if rejoin:
                raise ValueError(
                    f"change at {change.at:g} joins nodes "
                    f"{sorted(rejoin)} that are already replica-set "
                    f"members"
                )
            missing = set(change.leaves) - members
            if missing:
                raise ValueError(
                    f"change at {change.at:g} removes nodes "
                    f"{sorted(missing)} that are not replica-set members"
                )
            members = (members - set(change.leaves)) | set(change.joins)
            if len(members) < 2:
                raise ValueError(
                    f"change at {change.at:g} leaves fewer than two "
                    f"replicas ({sorted(members)}); majority quorums "
                    f"need at least two members"
                )

    @property
    def is_none(self) -> bool:
        """Whether this plan schedules no membership change at all."""
        return not self.changes

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dict of the configuration."""
        return {
            "seed": int(self.seed),
            "changes": [
                [float(c.at), [int(n) for n in c.joins],
                 [int(n) for n in c.leaves]]
                for c in self.changes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReconfigPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict keys)."""
        return cls(**field_kwargs(cls, data, "ReconfigPlan"))

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        if self.is_none:
            return "no reconfiguration"
        parts = [f"seed={self.seed}"]
        for c in self.changes:
            bits = []
            if c.joins:
                bits.append("+" + ",".join(str(n) for n in c.joins))
            if c.leaves:
                bits.append("-" + ",".join(str(n) for n in c.leaves))
            parts.append(f"change(@{c.at:g}: {' '.join(bits)})")
        return ", ".join(parts)


class MembershipView:
    """The quorum geometry shared by every SC-ABD port of one system.

    Owns the committed member set, the joint ``(old, new)`` overlap
    during a transition, and the optional per-node vote weights.  A
    quorum phase is satisfied when its responders carry a weight
    majority of the committed set *and*, during a transition, of the old
    set too — the joint-consensus overlap rule that keeps any two
    quorums intersecting across the epoch boundary.

    Unweighted systems are the ``weight = 1`` special case: a weight sum
    strictly above half the member count is exactly the familiar
    ``n // 2 + 1`` majority, and the weighted core of ``1 .. n`` is the
    lowest-index majority prefix — so the static-membership fast path in
    :mod:`repro.protocols.sc_abd` (no view at all) remains bit-identical.
    """

    __slots__ = ("committed", "joint_old", "weights")

    def __init__(
        self,
        members: Sequence[int],
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        self.committed: Tuple[int, ...] = tuple(sorted(members))
        #: the previous membership while a transition is pending
        self.joint_old: Optional[Tuple[int, ...]] = None
        self.weights: Optional[Dict[int, float]] = (
            dict(weights) if weights else None
        )

    def weight(self, node: int) -> float:
        """The vote weight of ``node`` (1 unless overridden)."""
        if self.weights is None:
            return 1.0
        return float(self.weights.get(node, 1.0))

    @property
    def in_transition(self) -> bool:
        return self.joint_old is not None

    # ------------------------------------------------------------------
    # quorum geometry
    # ------------------------------------------------------------------

    def ranked(self, members: Sequence[int]) -> List[int]:
        """Members by descending weight, index-ascending within ties."""
        if self.weights is None:
            return sorted(members)
        return sorted(members, key=lambda n: (-self.weight(n), n))

    def quorum_prefix(
        self, candidates: Sequence[int], of_members: Sequence[int]
    ) -> Tuple[int, ...]:
        """The cheapest ``candidates`` prefix holding a majority of
        ``of_members``'s total weight (empty when unreachable)."""
        if self.weights is None:
            # unit weights: the lowest ``n // 2 + 1`` candidates
            need = len(of_members) // 2 + 1
            if len(candidates) < need:
                return ()
            return tuple(sorted(candidates)[:need])
        total = sum(self.weight(n) for n in of_members)
        got = 0.0
        prefix: List[int] = []
        for node in self.ranked(candidates):
            prefix.append(node)
            got += self.weight(node)
            if got > total / 2.0:
                return tuple(sorted(prefix))
        return ()

    def core_of(self, members: Sequence[int]) -> Tuple[int, ...]:
        """The fault-free core quorum of ``members``."""
        return self.quorum_prefix(members, members)

    def core(self) -> Tuple[int, ...]:
        """The phase target set in fault-free operation.

        During a transition this is the union of both cores, so one
        phase fan-out can satisfy both majorities at once.
        """
        core = set(self.core_of(self.committed))
        if self.joint_old is not None:
            core |= set(self.core_of(self.joint_old))
        return tuple(sorted(core))

    def broadcast(self) -> Tuple[int, ...]:
        """Every node a re-selection re-broadcast may target."""
        if self.joint_old is None:
            return self.committed
        return tuple(sorted(set(self.committed) | set(self.joint_old)))

    def majority_of(self, responders, members: Sequence[int]) -> bool:
        """Whether ``responders`` hold a weight majority of ``members``."""
        if self.weights is None:
            # unit weights: a sum of 1.0s is the exact count
            return (len(set(responders) & set(members))
                    > len(members) / 2.0)
        total = sum(self.weight(n) for n in members)
        got = sum(self.weight(n) for n in set(responders) & set(members))
        return got > total / 2.0

    def satisfied(self, responders) -> bool:
        """Whether a quorum phase with these responders may complete."""
        if not self.majority_of(responders, self.committed):
            return False
        if self.joint_old is not None:
            return self.majority_of(responders, self.joint_old)
        return True


class ReconfigManager:
    """Drives the membership-change schedule of one system.

    Built by :class:`~repro.sim.system.DSMSystem` when a non-trivial
    :class:`ReconfigPlan` is configured (quorum protocols only).  Every
    change is scheduled at construction time, so the transitions are
    deterministic with respect to the workload.
    """

    def __init__(self, system: "DSMSystem", plan: ReconfigPlan) -> None:
        self.plan = plan
        self.view = system.membership
        self.nodes = system.nodes
        self.cluster = system.cluster
        self.scheduler = system.scheduler
        self.network = system.network
        self.metrics = system.metrics
        self.S = system.S
        self.P = system.P
        self.latency = system.network.latency
        #: state-transfer retry policy: the transport's datagram
        #: discipline applied to the snapshot fetch
        reliability = system.reliability
        self.retry_timeout = reliability.timeout
        self.retry_backoff = reliability.backoff
        self.max_retries = reliability.max_retries
        #: joiners whose state transfer has not settled yet
        self._pending_joins: Set[int] = set()
        #: changes that fired while an earlier transition was pending
        self._deferred: List[MembershipChange] = []
        self._joint_started = 0.0
        for change in plan.changes:
            self.scheduler.schedule_at(
                change.at, (lambda c=change: self._begin(c))
            )

    # ------------------------------------------------------------------
    # transition begin: enter joint mode
    # ------------------------------------------------------------------

    def _begin(self, change: MembershipChange) -> None:
        if self.view.in_transition:
            # one transition at a time: quorum overlap is only proven
            # between adjacent memberships.  Later changes wait for the
            # pending commit (or abort) and run back to back.
            self._deferred.append(change)
            return
        stats = self.metrics.reconfig
        stats.transitions += 1
        stats.joins += len(change.joins)
        stats.leaves += len(change.leaves)
        old = self.view.committed
        new = tuple(sorted(
            (set(old) - set(change.leaves)) | set(change.joins)
        ))
        self.view.joint_old = old
        self.view.committed = new
        self._joint_started = self.scheduler.now
        union = set(old) | set(new)
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event(
                "reconfig_begin",
                detail="joint mode %s -> %s" % (list(old), list(new)),
            )
        # change announcement: one bare token to every other participant.
        self.metrics.record_reconfig_cost(float(len(union) - 1),
                                          kind="announce")
        # ops in flight keep flowing, but their phases must now satisfy
        # both majorities: restart them against the joint targets instead
        # of stalling until the re-selection timer notices.
        stats.ops_redriven += self._restart_inflight()
        self._pending_joins = set(change.joins)
        if self._pending_joins:
            for joiner in sorted(self._pending_joins):
                self._transfer(joiner, 0)
        else:
            # leave-only change: one announce round trip, then settle.
            self.scheduler.schedule(
                2.0 * self.latency, (lambda: self._try_commit(0))
            )

    # ------------------------------------------------------------------
    # versioned state transfer (joiner catch-up)
    # ------------------------------------------------------------------

    def _transfer(self, joiner: int, attempt: int) -> None:
        if not self.view.in_transition:
            return  # the transition was aborted meanwhile
        if self._transfer_ok(joiner):
            # probe the donors, fetch the snapshot: one round trip.
            self.scheduler.schedule(
                2.0 * self.latency,
                (lambda: self._finish_transfer(joiner, attempt)),
            )
        else:
            self._retry_transfer(joiner, attempt)

    def _transfer_ok(self, joiner: int) -> bool:
        """Whether the snapshot fetch can succeed right now: the joiner
        is up and a majority of the old set is live to serve it."""
        old = self.view.joint_old
        if old is None:
            return False
        return (self._is_live(joiner)
                and self.view.majority_of(self._live(old), old))

    def _finish_transfer(self, joiner: int, attempt: int) -> None:
        if not self.view.in_transition:
            return
        if joiner not in self._pending_joins:
            return  # a racing retry already settled this joiner
        if not self._transfer_ok(joiner):
            # the donors (or the joiner) died during the round trip.
            self._retry_transfer(joiner, attempt)
            return
        old = self.view.joint_old
        donors = self._live(old)
        node = self.nodes[joiner]
        stats = self.metrics.reconfig
        cost = 0.0
        for obj, port in node.ports.items():
            cost += 1.0  # version probe: a bare token to the donors
            ts, value = self._authoritative(obj, donors)
            missed = max(0, ts[0] - port.process.ts[0])
            if missed and port.process.absorb_snapshot(ts, value):
                # cheaper of ordered catch-up and whole-copy transfer
                cost += min(missed * (self.P + 1.0), self.S + 1.0)
                stats.transfer_objects += 1
        stats.transfer_cost += cost
        self.metrics.record_reconfig_cost(cost, kind="transfer")
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event(
                "reconfig_transfer", dst=joiner,
                detail="node %d caught up (attempt %d)" % (joiner, attempt),
            )
        self._pending_joins.discard(joiner)
        if not self._pending_joins:
            self._try_commit(0)

    def _retry_transfer(self, joiner: int, attempt: int) -> None:
        stats = self.metrics.reconfig
        if attempt >= self.max_retries:
            stats.transfers_failed += 1
            self._abort("state transfer to node %d exhausted its retries"
                        % joiner)
            return
        stats.transfer_retries += 1
        self.scheduler.schedule(
            self._retry_delay(attempt),
            (lambda: self._transfer(joiner, attempt + 1)),
        )

    def _retry_delay(self, attempt: int) -> float:
        return backoff_delay(self.retry_timeout, self.retry_backoff,
                             attempt, cap=TRANSFER_DELAY_CAP)

    # ------------------------------------------------------------------
    # commit: establish the new quorum, bump the epoch, re-drive
    # ------------------------------------------------------------------

    def _try_commit(self, attempt: int) -> None:
        if not self.view.in_transition:
            return
        old = self.view.joint_old
        new = self.view.committed
        live_old = self._live(old)
        live_new = self._live(new)
        if (self.view.majority_of(live_old, old)
                and self.view.majority_of(live_new, new)):
            self._sync_new_quorum(live_old, live_new)
            self._commit()
            return
        stats = self.metrics.reconfig
        if attempt >= self.max_retries:
            stats.transfers_failed += 1
            self._abort("no live majority to commit against")
            return
        stats.transfer_retries += 1
        self.scheduler.schedule(
            self._retry_delay(attempt),
            (lambda: self._try_commit(attempt + 1)),
        )

    def _sync_new_quorum(self, live_old: List[int],
                         live_new: List[int]) -> None:
        """Establish the authoritative state at a majority of the new set.

        Required for safety beyond the joiners' own catch-up: after a
        multi-node leave, a post-commit read quorum of the new set could
        otherwise miss every holder of a write that predates the
        transition (its quorum only intersected the *old* majority).
        Installing the snapshot at a weight majority of the new set
        restores the invariant that any two quorums share a holder.
        """
        targets = self.view.quorum_prefix(live_new, self.view.committed)
        donors = sorted(set(live_old) | set(live_new))
        stats = self.metrics.reconfig
        cost = 0.0
        for member in targets:
            node = self.nodes[member]
            for obj, port in node.ports.items():
                ts, value = self._authoritative(obj, donors)
                missed = max(0, ts[0] - port.process.ts[0])
                if missed and port.process.absorb_snapshot(ts, value):
                    cost += 1.0 + min(missed * (self.P + 1.0),
                                      self.S + 1.0)
                    stats.transfer_objects += 1
        if cost:
            stats.transfer_cost += cost
            self.metrics.record_reconfig_cost(cost, kind="sync")

    def _commit(self) -> None:
        stats = self.metrics.reconfig
        stats.commits += 1
        stats.joint_time += self.scheduler.now - self._joint_started
        old = self.view.joint_old
        new = self.view.committed
        union = set(old) | set(new)
        self.view.joint_old = None
        # the epoch boundary: void the joint mode's in-flight quorum
        # traffic so no stale phase frame leaks into the new view.  The
        # quorum family keeps no FIFO write propagation, so the voided
        # data frames need no write-log absorption here.
        self.cluster.epoch += 1
        self.network.advance_epoch()
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event(
                "reconfig_commit",
                detail="epoch %d, members %s"
                % (self.cluster.epoch, list(new)),
            )
        self.metrics.record_reconfig_cost(float(len(union) - 1),
                                          kind="epoch_announce")
        # exactly-once re-drive: every in-flight op restarts its current
        # phase under a fresh generation in the new epoch; it completes
        # once, and its voided old-epoch traffic can never complete it.
        stats.ops_redriven += self._restart_inflight()
        if self._deferred:
            self._begin(self._deferred.pop(0))

    def _abort(self, why: str) -> None:
        """Roll the pending transition back to the old membership.

        Always safe: joint-mode quorums intersected a majority of the
        old set, so the old membership alone still holds every committed
        write.  Keeps a stuck transfer from wedging the run in joint
        mode forever.
        """
        stats = self.metrics.reconfig
        stats.aborts += 1
        stats.joint_time += self.scheduler.now - self._joint_started
        old = self.view.joint_old
        new = self.view.committed
        union = set(old) | set(new)
        self.view.committed = old
        self.view.joint_old = None
        self._pending_joins.clear()
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.system_event("reconfig_abort", detail=why)
        self.metrics.record_reconfig_cost(float(len(union) - 1),
                                          kind="announce")
        stats.ops_redriven += self._restart_inflight()
        if self._deferred:
            self._begin(self._deferred.pop(0))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _is_live(self, node: int) -> bool:
        if node in self.cluster.quarantined:
            return False
        timeline = self.network.timeline
        return (timeline is None
                or node not in timeline.at(self.scheduler.now)[0])

    def _live(self, members) -> List[int]:
        return [n for n in members if self._is_live(n)]

    def _authoritative(self, obj: int, members) -> Tuple[tuple, object]:
        """The max-timestamp ``(ts, value)`` of ``obj`` across ``members``."""
        best = max(
            (self.nodes[n].process_for(obj) for n in members),
            key=lambda proc: proc.ts,
        )
        return tuple(best.ts), best.value

    def _restart_inflight(self) -> int:
        redriven = 0
        for node_id in sorted(self.nodes):
            for port in self.nodes[node_id].ports.values():
                restart = getattr(port.process, "restart_inflight", None)
                if restart is not None and restart():
                    redriven += 1
        return redriven
