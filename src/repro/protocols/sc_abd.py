"""SC-ABD: sequencer-less majority-quorum protocol (extension family).

Every protocol in the paper serializes writes through the sequencer, so a
minority partition containing the sequencer stalls the whole system.
SC-ABD removes the star: every node (including node ``N + 1``) is a
symmetric replica holding ``(timestamp, value)`` where a timestamp is the
logical pair ``(number, node_id)``, ordered lexicographically.  Reads and
writes are the classic two-phase majority-quorum protocol of Attiya, Bar-
Noy and Dolev (ABD), which gives per-object linearizability — strictly
stronger than the sequential consistency the paper's protocols provide —
with liveness that needs only *any* majority of live, reachable replicas:

* **write** — phase 1 queries a quorum for timestamps (``Q-TS``/``Q-TR``,
  bare tokens), the writer picks ``(max_number + 1, node_id)``; phase 2
  installs ``(ts, value)`` at a quorum (``Q-UPD`` carrying the write
  parameters) and completes on a quorum of ``Q-ACK``\\ s.
* **read** — phase 1 queries a quorum for ``(ts, value)`` (``Q-RD`` bare,
  ``Q-RR`` carrying user information).  If the quorum unanimously reports
  the maximum timestamp the read completes immediately; otherwise the
  reader first **write-backs** the maximum ``(ts, value)`` to the stale
  quorum members (``Q-WB``) and completes only after their acks — the
  read-repair that makes reads linearizable.

Quorum selection and cost model: with ``n = N + 1`` nodes the majority is
``m = n // 2 + 1`` and the *core* quorum is nodes ``1 .. m``.  Fault-free,
every phase addresses the core (self-sends travel as free intra-node
loops), so per-operation costs are deterministic closed forms: a read
costs ``q * (S + 2)`` and a write ``q * (P + 4)``, where ``q = m - 1``
for a node inside the core and ``q = m`` outside it
(:func:`repro.core.closed_forms.acc_sc_abd`).  When a phase times out the
initiator **re-selects**: it re-broadcasts the phase message to every
node that has not answered (any ``m`` distinct responders then complete
the phase), with exponential backoff.  Re-selection traffic is charged to
the ``quorum`` share of ``acc`` — zero fault-free — and rides the
unordered datagram transport
(:meth:`repro.sim.reliable.ReliableNetwork.send_unordered`), whose
retry-budget exhaustion degrades into silence rather than delivery
violations: liveness is owned here, by re-selection, not by the channel.

Every phase fan-out builds **one payload**, shared by the message to each
target, so payloads are read-only: no handler may mutate one (replicas
answer with a fresh dict, and the identity tests run every protocol with
payload mutation made an error).  Every request payload carries ``gen``,
``retry`` and ``hedge``.  The static majority and core quorum are
computed once per process; a membership view, when one is attached,
supplies its own core and quorum predicate.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set, Tuple

from ..machines.message import (
    Message, Q_RD, Q_RR, Q_TS, Q_TR, Q_UPD, Q_WB, Q_ACK, PP_NONE, PP_WRITE,
    PP_USER_INFO,
)
from ..util import backoff_delay
from .base import (
    EJECT,
    READ,
    Operation,
    ProcessContext,
    ProtocolProcess,
    ProtocolSpec,
)

__all__ = ["SCABDProcess", "SPEC", "majority", "core_quorum",
           "quorum_fanout"]

REPLICA = "REPLICA"

#: base re-selection timeout: comfortably above the transport's base ack
#: timeout (8) plus a round trip, so fault-free phases never time out
QUORUM_TIMEOUT = 24.0
#: exponential backoff multiplier per re-selection attempt
QUORUM_BACKOFF = 2.0
#: cap on the inter-attempt delay (keeps healing partitions responsive)
QUORUM_DELAY_CAP = 400.0
#: re-selection attempts before an operation parks (an unhealed minority
#: partition); a parked operation is reported as stalled, never lost
QUORUM_MAX_ATTEMPTS = 60

Timestamp = Tuple[int, int]

#: phase -> (request type, parameter presence) of its fan-out
_PHASE_MESSAGES = {
    "read": (Q_RD, PP_NONE),
    "write_ts": (Q_TS, PP_NONE),
    "write_upd": (Q_UPD, PP_WRITE),
    "repair": (Q_WB, PP_WRITE),
}


def majority(num_nodes: int) -> int:
    """Majority quorum size ``m`` for an ``n``-node system."""
    return num_nodes // 2 + 1


def core_quorum(all_nodes: Tuple[int, ...]) -> Tuple[int, ...]:
    """The fault-free quorum: the ``m`` lowest-numbered nodes."""
    return all_nodes[: majority(len(all_nodes))]


def quorum_fanout(node: int, num_nodes: int) -> int:
    """Inter-node messages per phase leg, fault-free (``q`` in the docs).

    ``m - 1`` for a core member (its own leg is a free loop), ``m`` for a
    node outside the core.
    """
    m = majority(num_nodes)
    return m - 1 if node <= m else m


class SCABDProcess(ProtocolProcess):
    """The symmetric SC-ABD replica-plus-initiator process (every node)."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=REPLICA)
        # the node set is fixed for the process's life, so the static
        # majority and core quorum are too (a membership view, attached
        # later, keeps its own geometry and predicate)
        self._m = majority(len(ctx.all_nodes))
        self._static_core = core_quorum(ctx.all_nodes)
        #: logical timestamp of the local copy, ``(number, node_id)``
        self.ts: Timestamp = (0, 0)
        # ---- initiator-side phase machine (one op at a time per port:
        # the local queue is disabled for the whole operation) ----
        self._op: Optional[Operation] = None
        self._phase: Optional[str] = None
        self._gen = 0  # bumped on every phase change; stale traffic filtered
        self._attempts = 0
        self._timer: Optional[Any] = None
        self._replies: Dict[int, Any] = {}
        self._acks: Set[int] = set()
        self._repair_pending: Set[int] = set()
        self._new_ts: Optional[Timestamp] = None
        self._read_ts: Optional[Timestamp] = None
        self._read_value: Any = None
        # ---- hedged requests (repro.sim.hedge); all dormant unless the
        # context carries a HedgeConfig ----
        self._contacted: Set[int] = set()
        self._hedge_timer: Optional[Any] = None
        self._hedge_rng: Optional[random.Random] = None
        #: operations parked after exhausting re-selection attempts
        #: (an unhealed minority partition); surfaced as stalled
        self.parked_ops = 0

    # ------------------------------------------------------------------
    # quorum geometry
    # ------------------------------------------------------------------

    # ``ctx.membership`` is the shared
    # :class:`~repro.sim.reconfig.MembershipView`: ``None`` on static
    # unweighted memberships (a view is attached only when reconfiguration
    # or vote weights are configured), which keeps the classic
    # fixed-majority fast path bit-identical.

    def _core(self) -> Tuple[int, ...]:
        view = self.ctx.membership
        if view is not None:
            return view.core()
        demoted = getattr(self.ctx, "demoted_nodes", None)
        if not demoted:
            return self._static_core
        # latency-aware primary selection (static count-majority mode
        # only): demoted stragglers sort behind every healthy node, so
        # the cheapest *responsive* majority is contacted first.  Any
        # majority is a legal ABD quorum, so this is purely a latency
        # policy — correctness is untouched.  With a membership view the
        # joint-quorum geometry takes precedence (see above).
        nodes = sorted(self.ctx.all_nodes, key=lambda n: (n in demoted, n))
        return tuple(nodes[: self._m])

    def _broadcast(self) -> Tuple[int, ...]:
        """Every node a re-selection re-broadcast may target."""
        view = self.ctx.membership
        if view is None:
            return self.ctx.all_nodes
        return view.broadcast()

    def _quorum_reached(self, responders) -> bool:
        """Whether ``responders`` satisfy the current quorum predicate.

        Fixed membership: any ``m`` distinct responders.  With a
        membership view: a weight majority of the committed set and,
        during a joint-mode transition, of the old set too — replies
        from non-members can never complete a phase.
        """
        view = self.ctx.membership
        if view is None:
            return len(responders) >= self._m
        return view.satisfied(responders)

    # ------------------------------------------------------------------
    # application requests
    # ------------------------------------------------------------------

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # a quorum replica is load-bearing: ejects are refused (free).
            self.ctx.complete(op)
            return
        # every operation is distributed and two-phase: block the local
        # queue until it completes (one in-flight op per port).
        self._op = op
        self._attempts = 0
        self.ctx.disable_local_queue()
        if op.kind == READ:
            self._enter_phase("read", self._core(), retry=False)
        else:
            self._enter_phase("write_ts", self._core(), retry=False)

    # ------------------------------------------------------------------
    # phase machine
    # ------------------------------------------------------------------

    def _enter_phase(self, phase: str, targets, retry: bool) -> None:
        self._phase = phase
        self._gen += 1
        self._replies = {}
        self._acks = set()
        self._contacted = set(targets)
        self._send_phase(targets, retry)
        self._arm_timer()
        self._arm_hedge_timer()

    def _send_phase(self, targets, retry: bool, hedge: bool = False) -> None:
        # one payload for the whole fan-out: every target's message
        # carries the same dict, which no handler mutates
        phase = self._phase
        op = self._op
        if phase == "write_upd":
            payload = {"gen": self._gen, "ts": self._new_ts,
                       "value": op.params, "retry": retry, "hedge": hedge}
        elif phase == "repair":
            payload = {"gen": self._gen, "ts": self._read_ts,
                       "value": self._read_value, "retry": retry,
                       "hedge": hedge}
        else:
            payload = {"gen": self._gen, "retry": retry, "hedge": hedge}
        mtype, presence = _PHASE_MESSAGES[phase]
        self.ctx.send_many_unordered(targets, mtype, presence, op.op_id,
                                     payload, None, retry, hedge)

    def _arm_timer(self) -> None:
        delay = backoff_delay(QUORUM_TIMEOUT, QUORUM_BACKOFF, self._attempts,
                              cap=QUORUM_DELAY_CAP)
        gen = self._gen
        self._timer = self.ctx.schedule(delay,
                                        lambda: self._on_timeout(gen))

    def _cancel_timer(self) -> None:
        timer = self._timer
        if timer is not None:
            timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # hedged requests (repro.sim.hedge)
    # ------------------------------------------------------------------

    def _hedge_config(self):
        """The :class:`~repro.sim.hedge.HedgeConfig`, if one is attached."""
        return getattr(self.ctx, "hedge", None)

    def _arm_hedge_timer(self) -> None:
        self._cancel_hedge_timer()
        cfg = self._hedge_config()
        if cfg is None or self._phase == "repair":
            # repair targets *specific* stale members — no backup can
            # stand in for them, so there is nothing to hedge toward.
            return
        gen = self._gen
        self._hedge_timer = self.ctx.schedule(
            cfg.budget, lambda: self._on_hedge_timeout(gen)
        )

    def _cancel_hedge_timer(self) -> None:
        timer = self._hedge_timer
        if timer is not None:
            timer.cancel()
            self._hedge_timer = None

    def _on_hedge_timeout(self, gen: int) -> None:
        self._hedge_timer = None
        if self._op is None or gen != self._gen:
            return  # the phase moved on; stale timer
        cfg = self._hedge_config()
        responded = (self._acks if self._phase == "write_upd"
                     else self._replies)
        legs = self._hedge_candidates(responded)[: cfg.max_legs]
        if not legs:
            return
        self._contacted.update(legs)
        self.ctx.record_hedge_launch(len(legs))
        self._send_phase(legs, retry=False, hedge=True)

    def _hedge_candidates(self, responded) -> List[int]:
        """Backup replicas a hedge leg may target, best first.

        Un-contacted, un-responded, non-self nodes of the broadcast set;
        seeded shuffle for tie-breaking, then a stable partition that
        puts detector-demoted stragglers last — hedging exists to route
        *around* them.
        """
        if self._hedge_rng is None:
            cfg = self._hedge_config()
            obj = getattr(self.ctx, "obj", 0)
            self._hedge_rng = random.Random(
                cfg.seed * 1000003 + self.ctx.node_id * 1009 + obj
            )
        pool = [n for n in self._broadcast()
                if n not in self._contacted and n not in responded
                and n != self.ctx.node_id]
        self._hedge_rng.shuffle(pool)
        demoted = getattr(self.ctx, "demoted_nodes", None) or set()
        pool.sort(key=lambda n: n in demoted)
        return pool

    def _on_timeout(self, gen: int) -> None:
        if self._op is None or gen != self._gen:
            return  # the phase moved on; stale timer
        self._attempts += 1
        if self._attempts >= QUORUM_MAX_ATTEMPTS:
            # unhealed minority partition: park (stalled, never lost).
            self.parked_ops += 1
            self._timer = None
            return
        self.ctx.record_quorum_reselection()
        if self._phase == "repair":
            # a stale member is unreachable: restart the read from phase
            # 1 — re-selection will find a fresh majority to read (and,
            # if needed, repair through).
            self._enter_phase("read", self._broadcast(), retry=True)
            return
        responded = (self._acks if self._phase == "write_upd"
                     else self._replies)
        targets = [n for n in self._broadcast() if n not in responded]
        self._contacted.update(targets)
        self._send_phase(targets, retry=True)
        self._arm_timer()

    def _finish(self, value: Any = None) -> None:
        self._cancel_timer()
        self._cancel_hedge_timer()
        self._gen += 1  # stragglers from the finished op are filtered
        op, self._op = self._op, None
        self._phase = None
        if self._hedge_config() is not None:
            # hedge-loser cancellation: the op is decided, so pending
            # datagram retries toward slow losers are pure waste — void
            # them (late replies are already gen-filtered above).
            self.ctx.cancel_unordered(op.op_id)
        self.ctx.enable_local_queue()
        self.ctx.complete(op, value)

    def restart_inflight(self) -> bool:
        """Re-drive the in-flight operation from its first phase.

        Called by the reconfiguration manager at membership boundaries
        (joint-mode entry, epoch commit, abort): the quorum predicate
        just changed, so the operation restarts its phase machine under
        a fresh generation against the current quorum geometry.  Replies
        to the superseded generation are filtered (and the old epoch's
        frames are voided at commit), so the operation still completes
        exactly once.  A parked operation is revived — the membership
        change may be exactly what unblocks it.  Returns whether an
        operation was in flight.
        """
        if self._op is None:
            return False
        self._cancel_timer()
        self._attempts = 0
        if self._op.kind == READ:
            self._enter_phase("read", self._core(), retry=False)
        else:
            self._enter_phase("write_ts", self._core(), retry=False)
        return True

    # ------------------------------------------------------------------
    # replica duties (handle queries from any initiator, incl. self)
    # ------------------------------------------------------------------

    def _install(self, ts: Timestamp, value: Any) -> None:
        if tuple(ts) > self.ts:
            self.ts = tuple(ts)
            self.value = value

    def absorb_snapshot(self, ts: Timestamp, value: Any) -> bool:
        """Install a state-transfer copy (monotone, exactly like ``Q-UPD``).

        Used by the reconfiguration manager to catch up joining replicas
        and to establish the authoritative state at the new quorum before
        an epoch commits.  Returns whether the copy was newer than the
        local one.
        """
        if tuple(ts) <= self.ts:
            return False
        self._install(ts, value)
        return True

    def on_message(self, msg: Message) -> None:
        token = msg.token
        mtype = token.type
        payload = msg.payload
        if mtype is Q_RD:
            self.ctx.send_unordered(
                msg.src, Q_RR, PP_USER_INFO, msg.op_id,
                {"gen": payload["gen"], "ts": self.ts, "value": self.value},
                token.operation_initiator, payload["retry"],
                payload["hedge"])
        elif mtype is Q_TS:
            self.ctx.send_unordered(msg.src, Q_TR, PP_NONE, msg.op_id,
                                    {"gen": payload["gen"], "ts": self.ts},
                                    token.operation_initiator,
                                    payload["retry"], payload["hedge"])
        elif mtype is Q_UPD or mtype is Q_WB:
            self._install(payload["ts"], payload["value"])
            self.ctx.send_unordered(msg.src, Q_ACK, PP_NONE, msg.op_id,
                                    {"gen": payload["gen"]},
                                    token.operation_initiator,
                                    payload["retry"], payload["hedge"])
        elif mtype is Q_RR:
            self._on_read_reply(msg)
        elif mtype is Q_TR:
            self._on_ts_reply(msg)
        elif mtype is Q_ACK:
            self._on_ack(msg)
        else:  # pragma: no cover - specification error
            raise ValueError(f"sc_abd: unexpected {mtype}")

    # ------------------------------------------------------------------
    # initiator duties (collect replies, drive phases)
    # ------------------------------------------------------------------

    def _on_read_reply(self, msg: Message) -> None:
        payload = msg.payload
        if (self._op is None or self._phase != "read"
                or payload["gen"] != self._gen):
            return
        self._replies[msg.src] = (tuple(payload["ts"]), payload["value"])
        if not self._quorum_reached(self._replies):
            return
        # phase 1 complete: the max timestamp is the read's value.
        max_ts, value = max(self._replies.values())
        self._read_ts, self._read_value = max_ts, value
        # the reader itself may install for free (it is as entitled to
        # hold (ts, value) as any replica).
        self._install(max_ts, value)
        stale = {node for node, (ts, _v) in self._replies.items()
                 if ts < max_ts and node != self.ctx.node_id}
        if not stale:
            # the whole counted quorum holds max_ts: linearizable as-is.
            self._finish(value)
            return
        # read-repair: write max back to the stale members before
        # completing, so no later read can travel back in time.
        self._repair_pending = stale
        self._enter_phase("repair", sorted(stale), retry=False)

    def _on_ts_reply(self, msg: Message) -> None:
        payload = msg.payload
        if (self._op is None or self._phase != "write_ts"
                or payload["gen"] != self._gen):
            return
        self._replies[msg.src] = tuple(payload["ts"])
        if not self._quorum_reached(self._replies):
            return
        # phase 1 complete: mint a unique, dominating timestamp.
        max_num = max(num for num, _node in self._replies.values())
        self._new_ts = (max_num + 1, self.ctx.node_id)
        self._enter_phase("write_upd", self._core(), retry=False)

    def _on_ack(self, msg: Message) -> None:
        if self._op is None or msg.payload["gen"] != self._gen:
            return
        if self._phase == "write_upd":
            self._acks.add(msg.src)
            if self._quorum_reached(self._acks):
                self._finish()
        elif self._phase == "repair":
            self._repair_pending.discard(msg.src)
            if not self._repair_pending:
                self._finish(self._read_value)


SPEC = ProtocolSpec(
    name="sc_abd",
    display_name="SC-ABD (majority quorum)",
    client_states=(REPLICA,),
    sequencer_states=(REPLICA,),
    invalidation_based=False,
    migrating_owner=False,
    client_factory=SCABDProcess,
    sequencer_factory=SCABDProcess,
    notes=(
        "Extension (not in the paper): two-phase ABD majority quorums "
        "with per-object logical timestamps and read-repair write-back; "
        "no sequencer, so liveness needs only a majority — minority "
        "partitions and sequencer-class crashes do not stall it.  "
        "Fault-free costs: read q(S+2), write q(P+4) with q = m-1 "
        "inside the core quorum, m outside."
    ),
    quorum_based=True,
)
