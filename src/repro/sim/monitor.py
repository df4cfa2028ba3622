"""Runtime consistency monitor: convergence and sequential consistency.

An opt-in observer (``RunConfig(monitor=True)``) that records every
node's completed read/write history and, at quiescence, checks the two
guarantees the replicated-memory model promises even across crashes and
failovers:

* **replica convergence** — every copy that serves local reads equals the
  authoritative serialized value (per-object version vectors of install
  counts are kept for the diagnosis);
* **sequential consistency** of the merged completed history, checked
  per object — matching the system's consistency unit: each shared
  object has its own serialization point (sequencer or owner), so the
  guarantee the protocols provide is per-object sequential consistency
  (coherence).  The checker searches for a *witness*: one interleaving
  of the per-node program-order histories in which every read returns
  the most recently written value (initially 0).  The search is a greedy
  read-closure (taking an enabled read never forecloses a witness, so
  they are consumed eagerly) plus depth-first branching over the
  possible write orders, memoized on the search state.

Crash-awareness: a write that was *issued but never completed* (lost in
flight, or re-driven traffic observed by some replica before a crash) may
legitimately be observed by completed reads.  Such **phantom writes** may
be materialized at any single point of the witness; this direction can
only make the checker more permissive — violations are never reported
against a history a crash can explain (no false positives; at worst a
missed violation).

Graceful degradation: the checker never raises.  A history with no
witness produces a structured :class:`ConsistencyViolation`; a search
that exhausts its step budget counts as *inconclusive* (reported on the
monitor, not as a violation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..protocols.base import READ, WRITE, Operation

__all__ = ["ConsistencyViolation", "ConsistencyMonitor"]


@dataclass(frozen=True)
class ConsistencyViolation:
    """One structured consistency finding (never an exception).

    Attributes:
        kind: ``"divergence"`` (a readable replica disagrees with the
            authoritative value) or ``"sequential_consistency"`` (the
            merged completed history admits no legal interleaving).
        obj: the shared object concerned.
        detail: human-readable diagnosis.
        history: a bounded slice of the per-node completed histories that
            exhibit the problem, as ``(node, kind, value)`` triples.
    """

    kind: str
    obj: int
    detail: str
    history: Tuple[Tuple[int, str, object], ...] = field(default=())


class _BudgetExhausted(Exception):
    pass


class ConsistencyMonitor:
    """Records completed operation histories and checks them at quiescence.

    Attach through ``RunConfig(monitor=True)``; the monitor only ever
    *observes* (submit/complete/install hooks) — it cannot perturb the
    simulation, and all checking happens after the run.
    """

    #: cap on violation history slices (keep reports readable)
    HISTORY_SLICE = 40

    def __init__(self, step_budget: int = 200_000) -> None:
        if step_budget < 1:
            raise ValueError("step_budget must be positive")
        self.step_budget = step_budget
        #: SC witness searches abandoned at the step budget (not violations)
        self.inconclusive = 0
        # obj -> node -> completed (kind, value) in program order
        self._history: Dict[int, Dict[int, List[Tuple[str, object]]]] = {}
        # issued writes not (yet) completed are phantom candidates
        self._issued_writes: Dict[int, Operation] = {}
        self._completed_ids: Set[int] = set()
        # version vectors: (node, obj) -> install count
        self._installs: Dict[Tuple[int, int], int] = {}
        #: reads served from a stale replica under partition degraded mode
        self.stale_reads = 0
        # op ids of those reads: flagged before completion, so
        # on_complete can keep them out of the SC witness history
        self._degraded: Set[int] = set()

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------

    def on_submit(self, op: Operation) -> None:
        """An application issued ``op`` (phantom-write bookkeeping)."""
        if op.kind == WRITE:
            self._issued_writes[op.op_id] = op

    def on_complete(self, op: Operation) -> None:
        """``op`` completed: append it to its node's per-object history."""
        if op.kind not in (READ, WRITE):
            return
        self._completed_ids.add(op.op_id)
        if op.op_id in self._degraded:
            # a stale read served under partition degraded mode: the
            # policy *advertises* weaker-than-SC semantics for it, so it
            # is counted (``stale_reads``) but excluded from the witness
            # search — including it would report the staleness the user
            # opted into as a sequential-consistency violation.
            return
        value = op.result if op.kind == READ else op.params
        self._history.setdefault(op.obj, {}).setdefault(
            op.node, []
        ).append((op.kind, value))

    def on_degraded_read(self, op: Operation) -> None:
        """Flag ``op`` as a stale read about to be served degraded."""
        self.stale_reads += 1
        self._degraded.add(op.op_id)

    def on_install(self, node: int, obj: int, value: object,
                   time: float) -> None:
        """A replica installed a value (version-vector bookkeeping)."""
        self._installs[(node, obj)] = self._installs.get((node, obj), 0) + 1

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def version_vector(self, obj: int) -> Dict[int, int]:
        """Install counts per node for ``obj`` (diagnostic)."""
        return {
            node: count
            for (node, o), count in sorted(self._installs.items())
            if o == obj
        }

    def objects(self) -> List[int]:
        """Objects with recorded history."""
        return sorted(self._history)

    def check_convergence(
        self,
        obj: int,
        truth: object,
        replicas: Iterable[Tuple[int, str, object, bool]],
    ) -> List[ConsistencyViolation]:
        """Compare readable replicas of ``obj`` against ``truth``.

        ``replicas`` yields ``(node, state, value, readable)``; only
        readable copies participate (an INVALID copy is allowed to hold
        anything).  The system excludes nodes that are down at the end of
        the run — a dead replica cannot serve reads.
        """
        violations = []
        for node, state, value, readable in replicas:
            if readable and value != truth:
                violations.append(ConsistencyViolation(
                    kind="divergence",
                    obj=obj,
                    detail=(
                        f"node {node} holds {value!r} in readable state "
                        f"{state} but the authoritative value is {truth!r} "
                        f"(version vector {self.version_vector(obj)})"
                    ),
                ))
        return violations

    def check_object(self, obj: int) -> Optional[ConsistencyViolation]:
        """Search for a sequential-consistency witness for ``obj``.

        Returns a violation when no witness exists, ``None`` when one is
        found *or* when the search budget runs out (counted in
        :attr:`inconclusive` — degradation, never a false positive).
        """
        per_node = self._history.get(obj, {})
        nodes = sorted(per_node)
        sequences = [tuple(per_node[n]) for n in nodes]
        if not sequences:
            return None
        phantoms = tuple(
            op.params for op in self._issued_writes.values()
            if op.obj == obj and op.op_id not in self._completed_ids
        )
        try:
            if self._witness(sequences, phantoms):
                return None
        except _BudgetExhausted:
            self.inconclusive += 1
            return None
        return ConsistencyViolation(
            kind="sequential_consistency",
            obj=obj,
            detail=(
                f"no legal interleaving of the completed history exists "
                f"for object {obj} ({sum(map(len, sequences))} ops across "
                f"{len(nodes)} nodes, {len(phantoms)} phantom writes "
                f"considered)"
            ),
            history=self._history_slice(obj),
        )

    def check(
        self,
        authoritative: Dict[int, object],
        replicas: Dict[int, List[Tuple[int, str, object, bool]]],
    ) -> List[ConsistencyViolation]:
        """Run every check; returns all violations (empty when clean)."""
        violations: List[ConsistencyViolation] = []
        for obj in sorted(set(self.objects()) | set(authoritative)):
            if obj in authoritative:
                violations.extend(self.check_convergence(
                    obj, authoritative[obj], replicas.get(obj, ())
                ))
            sc = self.check_object(obj)
            if sc is not None:
                violations.append(sc)
        return violations

    # ------------------------------------------------------------------
    # witness search
    # ------------------------------------------------------------------

    def _witness(
        self,
        sequences: List[Tuple[Tuple[str, object], ...]],
        phantoms: Tuple[object, ...],
    ) -> bool:
        budget = self.step_budget
        seen: Set[Tuple] = set()
        n = len(sequences)
        lengths = tuple(len(s) for s in sequences)

        def closure(pos: Tuple[int, ...], current: object) -> Tuple[int, ...]:
            # consume every read satisfied by the current value: reads do
            # not change the memory, so taking them never loses witnesses.
            out = list(pos)
            for i in range(n):
                while out[i] < lengths[i]:
                    kind, value = sequences[i][out[i]]
                    if kind == READ and value == current:
                        out[i] += 1
                    else:
                        break
            return tuple(out)

        def successors(pos: Tuple[int, ...], used: int) -> Iterator[Tuple]:
            # the states one step further, in exploration order
            for i in range(n):
                if pos[i] >= lengths[i]:
                    continue
                kind, value = sequences[i][pos[i]]
                nxt = pos[:i] + (pos[i] + 1,) + pos[i + 1:]
                if kind == WRITE:
                    yield nxt, value, used
                else:
                    # a blocked read: it may be explained by materializing
                    # an unused phantom write just before it.
                    for j, phantom in enumerate(phantoms):
                        if used & (1 << j) or phantom != value:
                            continue
                        yield nxt, phantom, used | (1 << j)

        def visit(pos: Tuple[int, ...], current: object,
                  used: int) -> Union[bool, None, Iterator[Tuple]]:
            # one search step: True when a witness is complete, None for a
            # state already explored, else the state's successors
            nonlocal budget
            budget -= 1
            if budget <= 0:
                raise _BudgetExhausted
            pos = closure(pos, current)
            if all(pos[i] == lengths[i] for i in range(n)):
                return True
            key = (pos, current, used)
            if key in seen:
                return None
            seen.add(key)
            return successors(pos, used)

        # depth-first search on an explicit stack of successor iterators
        # (one per open state), so deep histories cannot exhaust Python's
        # recursion limit; states are visited in the same order, and the
        # same number of times, as by a recursive search
        stack = [iter([(tuple(0 for _ in sequences), 0, 0)])]
        while stack:
            state = next(stack[-1], None)
            if state is None:
                stack.pop()  # every successor failed: backtrack
                continue
            found = visit(*state)
            if found is True:
                return True
            if found is not None:
                stack.append(found)
        return False

    def _history_slice(self, obj: int) -> Tuple[Tuple[int, str, object], ...]:
        entries: List[Tuple[int, str, object]] = []
        for node, ops in sorted(self._history.get(obj, {}).items()):
            for kind, value in ops[-self.HISTORY_SLICE:]:
                entries.append((node, kind, value))
            if len(entries) >= self.HISTORY_SLICE:
                break
        return tuple(entries[:self.HISTORY_SLICE])
