"""Deterministic fault injection for the simulator's message fabric.

The paper assumes "fault free communication between nodes" (Section 2); a
:class:`FaultPlan` deliberately breaks that assumption so the reliability
overhead of the coherence protocols becomes measurable (docs/faults.md).
A plan injects, reproducibly from a single seed:

* **message drops** — each inter-node transmission is lost with probability
  ``drop_rate``;
* **duplicates** — each transmission is delivered a second time with
  probability ``duplicate_rate``;
* **latency jitter** — each delivery is delayed by an extra
  ``U(0, jitter)`` on top of the channel latency (which reorders
  messages across a channel);
* **gray failures / stragglers** — during a :class:`SlowWindow` the node
  is alive and correct but persistently slow: every delivery it sends or
  receives takes ``factor``× the base latency (plus any jitter).  Unlike
  the stochastic ``jitter``, the slowdown is *multiplicative and
  deterministic* — it consumes no randomness, so layering slow windows
  onto an existing plan leaves every drop/duplicate/jitter decision of
  that plan untouched;
* **timed node crashes** — during a :class:`CrashWindow` the node's network
  interface is silent: nothing it sends leaves the node and nothing
  addressed to it is delivered.  Crashing the sequencer is allowed (and is
  the interesting case).  Each window carries a *crash semantics* knob:

  - ``"durable"`` (the default) is fail-recover with durable state:
    protocol state survives the outage, only communication is lost;
  - ``"amnesia"`` loses the node's volatile replica state on crash — the
    node rejoins empty and must resynchronize through the recovery
    subsystem (:mod:`repro.sim.recovery`) before re-entering the protocol.

Determinism: every drop/duplicate/jitter decision consumes the plan's own
``random.Random(seed)`` stream in simulation order, so two runs with the
same workload seed and the same plan seed make identical decisions.  A plan
is therefore single-use — build a fresh one per run
(``dataclasses.replace(plan)`` returns an identically-configured plan with a
rewound stream, which is what :class:`~repro.sim.system.DSMSystem` runs).

Lookups: a faulty reliable transport compiles its plans' windows once
into a :class:`FaultTimeline` — piecewise-constant segments between
consecutive window edges, each holding the down set, the slowed nodes'
factors and the active links' rates — and every fault lookup of a run
reads that timeline: one segment per transmission, one comparison while
the simulated time stays inside the segment.  The plans themselves are
frozen configuration plus their RNG streams; the transport binds the
rates and streams and rolls every decision on its wire
(:mod:`repro.sim.reliable`).

``FaultPlan()`` is the explicit no-fault plan; the system treats it
exactly like "no plan at all", so fault-free runs stay bit-identical to the
paper-faithful fabric (pay-for-what-you-use).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from ..util import field_kwargs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .partition import PartitionPlan

__all__ = ["CRASH_SEMANTICS", "CrashWindow", "FaultPlan", "FaultTimeline",
           "SlowWindow"]


#: legal values of :attr:`CrashWindow.semantics`
CRASH_SEMANTICS = ("durable", "amnesia")


def decode_windows(entries: Sequence) -> Tuple[tuple, ...]:
    """Serialized window entries as constructor tuples (``None`` → ``inf``).

    ``to_dict`` writes an open-ended window's end as ``None``; the other
    positions pass through to the window class's constructor.
    """
    return tuple(tuple(math.inf if x is None else x for x in entry)
                 for entry in entries)


@dataclass(frozen=True, slots=True)
class SlowWindow:
    """One gray-failure interval ``[start, end)``: the node stays alive
    but every delivery touching it is ``factor``× slower.

    The slowdown is deterministic (no RNG draw) and multiplicative on the
    base channel latency plus jitter, modelling a straggler — a node that
    acks heartbeats yet serves an order of magnitude slower than its
    peers — as opposed to the stochastic per-delivery ``jitter``.
    """

    node: int
    start: float
    end: float = math.inf
    factor: float = 10.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"slow start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"slow window must end after it starts "
                f"({self.start} .. {self.end})"
            )
        if not (self.factor > 1.0 and math.isfinite(self.factor)):
            raise ValueError(
                f"slowdown factor must be a finite number > 1 "
                f"(1 is no slowdown), got {self.factor}"
            )

    def covers(self, time: float) -> bool:
        """Whether the node is slowed at ``time``."""
        return self.start <= time < self.end


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """One node-outage interval ``[start, end)`` in simulation time.

    ``semantics`` selects what the crash destroys: ``"durable"`` keeps the
    node's protocol state across the outage (only communication is lost);
    ``"amnesia"`` wipes the volatile replica state, so the node must be
    resynchronized by the recovery subsystem when it rejoins.
    """

    node: int
    start: float
    end: float = math.inf
    semantics: str = "durable"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"crash start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"crash window must end after it starts "
                f"({self.start} .. {self.end})"
            )
        if self.semantics not in CRASH_SEMANTICS:
            raise ValueError(
                f"crash semantics must be one of {CRASH_SEMANTICS}, "
                f"got {self.semantics!r}"
            )

    def covers(self, time: float) -> bool:
        """Whether the node is down at ``time``."""
        return self.start <= time < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of communication faults.

    Args:
        seed: seed for the plan's private RNG stream.
        drop_rate: per-transmission loss probability, in ``[0, 1]``.
        duplicate_rate: per-transmission duplication probability, ``[0, 1]``.
        jitter: maximum extra delivery delay (uniform on ``[0, jitter]``).
        crashes: node-outage windows (:class:`CrashWindow` instances or
            ``(node, start[, end[, semantics]])`` tuples).  Windows on the
            same node must not overlap (a config-time :class:`ValueError`).
        slowdowns: gray-failure windows (:class:`SlowWindow` instances or
            ``(node, start[, end[, factor]])`` tuples).  Windows on the
            same node must not overlap.

    Equality, hashing and ``repr`` cover the configuration fields only;
    the RNG stream is run state.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    jitter: float = 0.0
    crashes: Tuple[CrashWindow, ...] = ()
    slowdowns: Tuple[SlowWindow, ...] = ()
    _rng: random.Random = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1], got {self.drop_rate}"
            )
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}"
            )
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        crashes = tuple(w if isinstance(w, CrashWindow) else CrashWindow(*w)
                        for w in self.crashes)
        slowdowns = tuple(w if isinstance(w, SlowWindow) else SlowWindow(*w)
                          for w in self.slowdowns)
        self._check_window_overlap(crashes, "crash")
        self._check_window_overlap(slowdowns, "slow")
        set_ = object.__setattr__
        set_(self, "crashes", crashes)
        set_(self, "slowdowns", slowdowns)
        set_(self, "_rng", random.Random(self.seed))

    @staticmethod
    def _check_window_overlap(windows: Sequence, label: str) -> None:
        """Reject overlapping windows on the same node at config time.

        Two simultaneous outages (or slowdowns) of one node have no
        sensible meaning (is the second crash edge a crash or a no-op?
        do the factors stack?) and would mis-drive the recovery
        subsystem's crash/rejoin events.  Adjacent windows
        (``prev.end == next.start``) are allowed; windows on *different*
        nodes may overlap freely.
        """
        last_end: dict = {}
        for w in sorted(windows, key=lambda w: (w.node, w.start)):
            prev = last_end.get(w.node)
            if prev is not None and w.start < prev:
                raise ValueError(
                    f"overlapping {label} windows for node {w.node}: a "
                    f"window starting at {w.start:g} begins before the "
                    f"previous one ends at {prev:g}"
                )
            last_end[w.node] = w.end

    def validate_nodes(self, num_nodes: int) -> None:
        """Reject windows naming nodes outside ``1 .. num_nodes``.

        Called with ``N + 1`` by :class:`~repro.sim.system.DSMSystem` (and
        by the CLI) so a typo'd node index fails loudly at configuration
        time instead of silently never firing.
        """
        for label, windows in (("crash", self.crashes),
                               ("slow", self.slowdowns)):
            for w in windows:
                if not 1 <= w.node <= num_nodes:
                    raise ValueError(
                        f"{label} window names node {w.node}, but the "
                        f"system has nodes 1 .. {num_nodes} (clients 1 .. "
                        f"{num_nodes - 1}, sequencer {num_nodes})"
                    )

    @property
    def is_none(self) -> bool:
        """Whether this plan injects no faults at all."""
        return (
            self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.jitter == 0.0
            and not self.crashes
            and not self.slowdowns
        )

    @property
    def has_amnesia(self) -> bool:
        """Whether any crash window loses node state (needs recovery)."""
        return any(w.semantics == "amnesia" for w in self.crashes)

    @property
    def has_slowdowns(self) -> bool:
        """Whether any gray-failure window is scheduled."""
        return bool(self.slowdowns)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dict of the configuration (``inf`` ends → None)."""
        data = {
            "seed": int(self.seed),
            "drop_rate": float(self.drop_rate),
            "duplicate_rate": float(self.duplicate_rate),
            "jitter": float(self.jitter),
            "crashes": [
                # durable windows keep the historical 3-element shape so
                # serialized durable-only plans stay canonical.
                [int(w.node), float(w.start),
                 None if math.isinf(w.end) else float(w.end)]
                + ([] if w.semantics == "durable" else [w.semantics])
                for w in self.crashes
            ],
        }
        # pay-for-what-you-use: the slowdown key appears only when gray
        # failures are scheduled, so every pre-existing plan — and every
        # cell id and cache key hashed from it — stays byte-identical.
        if self.slowdowns:
            data["slowdowns"] = [
                [int(w.node), float(w.start),
                 None if math.isinf(w.end) else float(w.end),
                 float(w.factor)]
                for w in self.slowdowns
            ]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a fresh (rewound) plan from :meth:`to_dict` output.

        Accepts both the historical 3-element crash entries
        (``[node, start, end]``, durable) and the 4-element form carrying
        an explicit semantics tag.  Unknown keys raise ``ValueError``
        instead of being silently dropped.
        """
        return cls(**field_kwargs(cls, data, "FaultPlan",
                                  crashes=decode_windows,
                                  slowdowns=decode_windows))

    # ------------------------------------------------------------------
    # crash schedule
    # ------------------------------------------------------------------

    def crash_edges(self) -> List[Tuple[float, int, str]]:
        """Sorted ``(time, node, "crash"|"recover")`` bookkeeping events.

        Recovery edges at ``inf`` (a node that never comes back) are
        omitted.
        """
        edges: List[Tuple[float, int, str]] = []
        for w in self.crashes:
            edges.append((w.start, w.node, "crash"))
            if math.isfinite(w.end):
                edges.append((w.end, w.node, "recover"))
        edges.sort()
        return edges

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        if self.is_none:
            return "no faults"
        parts = [f"seed={self.seed}"]
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.jitter:
            parts.append(f"jitter<={self.jitter:g}")
        # group windows sharing (start, end, semantics) into node lists so
        # dumps of wide schedules (chaos repros) stay human-readable.
        groups: dict = {}
        for w in self.crashes:
            groups.setdefault((w.start, w.end, w.semantics), []).append(w.node)
        for (start, end_t, semantics), nodes in groups.items():
            end = "∞" if math.isinf(end_t) else f"{end_t:g}"
            label = (f"node {nodes[0]}" if len(nodes) == 1
                     else "nodes " + ",".join(str(n) for n in sorted(nodes)))
            parts.append(f"crash({label}: {start:g}..{end}, {semantics})")
        slow_groups: dict = {}
        for w in self.slowdowns:
            slow_groups.setdefault((w.start, w.end, w.factor), []).append(
                w.node)
        for (start, end_t, factor), nodes in slow_groups.items():
            end = "∞" if math.isinf(end_t) else f"{end_t:g}"
            label = (f"node {nodes[0]}" if len(nodes) == 1
                     else "nodes " + ",".join(str(n) for n in sorted(nodes)))
            parts.append(f"slow({label}: {start:g}..{end}, x{factor:g})")
        return ", ".join(parts)


#: one timeline segment: the down nodes, each slowed node's factor, and
#: ``{src: {dst: (drop, duplicate, jitter)}}`` for the active links
Segment = Tuple[FrozenSet[int], Dict[int, float],
                Dict[int, Dict[int, Tuple[float, float, float]]]]


class FaultTimeline:
    """A run's crash windows, slow windows and link faults, compiled into
    piecewise-constant segments.

    ``edges`` is the sorted list of distinct finite window starts and
    ends.  Segment ``i`` spans ``[edges[i-1], edges[i])`` — the first is
    unbounded below and the last above — so a plan with no windows has
    exactly one segment.  Each segment is a :data:`Segment` triple
    ``(down, slow, links)``:

    * ``down`` — the nodes whose crash window covers the segment;
    * ``slow`` — ``{node: factor}`` for the nodes a slow window covers;
    * ``links`` — ``{src: {dst: (drop, duplicate, jitter)}}``, each the
      maximum over the link faults active on ``src -> dst``.

    Every window starts and ends on an edge, so a segment's state is what
    a scan over all windows answers anywhere inside it.  :meth:`at` keeps
    a cursor on the segment it last returned; while the queried time
    stays inside that segment a lookup is one comparison, and outside it
    the cursor re-seeks by bisection, so queries in any order are exact.
    """

    __slots__ = ("edges", "segments", "_lo", "_hi", "_segment")

    def __init__(self, faults: Optional[FaultPlan],
                 partitions: Optional["PartitionPlan"]) -> None:
        crashes = faults.crashes if faults is not None else ()
        slowdowns = faults.slowdowns if faults is not None else ()
        links = partitions.links if partitions is not None else ()
        self.edges: List[float] = sorted(
            {t for w in crashes + slowdowns + links
             for t in (w.start, w.end) if math.isfinite(t)})
        self.segments: List[Segment] = []
        for t in [-math.inf] + self.edges:
            rates: Dict[int, Dict[int, Tuple[float, float, float]]] = {}
            for f in links:
                if f.covers(t):
                    row = rates.setdefault(f.src, {})
                    old = row.get(f.dst)
                    row[f.dst] = (
                        (f.drop_rate, f.duplicate_rate, f.jitter)
                        if old is None else
                        (max(old[0], f.drop_rate),
                         max(old[1], f.duplicate_rate),
                         max(old[2], f.jitter)))
            self.segments.append((
                frozenset(w.node for w in crashes if w.covers(t)),
                {w.node: w.factor for w in slowdowns if w.covers(t)},
                rates,
            ))
        self._lo = -math.inf
        self._hi = self.edges[0] if self.edges else math.inf
        self._segment = self.segments[0]

    def at(self, now: float) -> Segment:
        """The segment covering simulation time ``now``."""
        if self._lo <= now < self._hi:
            return self._segment
        edges = self.edges
        i = bisect_right(edges, now)
        self._lo = edges[i - 1] if i else -math.inf
        self._hi = edges[i] if i < len(edges) else math.inf
        self._segment = self.segments[i]
        return self._segment
