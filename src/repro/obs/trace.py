"""Structured event tracing for the DSM simulator.

The tracer records one :class:`Span` per shared-memory operation
(initiation -> sequencer ordering -> replica updates -> completion) and
attaches child :class:`TraceEvent` records for every message send,
delivery, retry, ack, quarantine and epoch reset that happens on the
operation's behalf.  Every event carries the cost share it contributed,
so a span's event costs sum exactly to the operation's trace cost as
charged by :class:`repro.sim.metrics.Metrics` -- the tracer is hooked
into the same call sites that charge costs, which makes the invariant
hold by construction rather than by reconciliation.

Design constraints:

* **Zero overhead when disabled.**  Every hook point in the simulator
  guards on ``tracer is not None``; a run without tracing executes the
  exact same instruction stream as before this module existed.
* **Seed determinism.**  Timestamps come from the simulation clock, not
  wall clock, and no iteration order depends on hashing of non-string
  keys.  The same :class:`repro.sim.config.RunConfig` and seed produce a
  byte-identical exported trace.
* **Bounded overhead when enabled.**  ``TraceConfig.sample_every=k``
  keeps a span for every k-th operation only; events for unsampled
  operations are dropped at the hook point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..util import field_kwargs

__all__ = ["TraceConfig", "TraceEvent", "Span", "Tracer"]


@dataclass(frozen=True)
class TraceConfig:
    """Configuration for structured tracing.

    Attributes:
        sample_every: keep a full span for every k-th operation (1 =
            trace everything).  System-level events (crashes, epoch
            resets, detector probes) are always recorded.
    """

    sample_every: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.sample_every, int) or isinstance(self.sample_every, bool):
            raise TypeError("sample_every must be an int")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {"sample_every": self.sample_every}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceConfig":
        return cls(**field_kwargs(cls, data, "TraceConfig"))


@dataclass
class TraceEvent:
    """A single instant inside a span (or a system-level event).

    ``cost`` is the acc share this event contributed to its operation's
    trace cost (0.0 for purely informational events such as queue
    enqueues or duplicate suppressions).
    """

    __slots__ = ("kind", "time", "op_id", "src", "dst", "cost", "detail")

    kind: str
    time: float
    op_id: Optional[int]
    src: Optional[int]
    dst: Optional[int]
    cost: float
    detail: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "time": self.time, "cost": self.cost}
        if self.op_id is not None:
            out["op_id"] = self.op_id
        if self.src is not None:
            out["src"] = self.src
        if self.dst is not None:
            out["dst"] = self.dst
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class Span:
    """The full lifetime of one shared-memory operation."""

    op_id: int
    node: int
    kind: str
    obj: int
    start: float
    end: Optional[float] = None
    cost: float = 0.0
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.end is not None

    @property
    def latency(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op_id": self.op_id,
            "node": self.node,
            "kind": self.kind,
            "obj": self.obj,
            "start": self.start,
            "end": self.end,
            "cost": self.cost,
            "events": [ev.to_dict() for ev in self.events],
        }


class Tracer:
    """Collects spans and events from the simulator's hook points.

    The tracer is attached to :class:`repro.sim.metrics.Metrics` (for
    cost-charging hooks) and to the network/recovery layers (for
    informational hooks).  ``clock`` is any object exposing ``now`` in
    simulated time -- in practice the :class:`EventScheduler`.
    """

    __slots__ = ("config", "clock", "_spans", "_system", "_op_seq", "_dropped_events")

    def __init__(self, config: Optional[TraceConfig] = None, clock: Any = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self.clock = clock
        self._spans: Dict[int, Span] = {}
        self._system: List[TraceEvent] = []
        self._op_seq = 0
        self._dropped_events = 0

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def begin_op(self, op_id: int, node: int, kind: str, obj: int, time: float) -> None:
        """Open a span for an operation (called at registration time)."""
        seq = self._op_seq
        self._op_seq = seq + 1
        if seq % self.config.sample_every:
            return
        self._spans[op_id] = Span(op_id=op_id, node=node, kind=kind, obj=obj, start=time)

    def end_op(self, op_id: int, time: float) -> None:
        span = self._spans.get(op_id)
        if span is not None:
            span.end = time

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _now(self) -> float:
        clock = self.clock
        return float(clock.now) if clock is not None else 0.0

    def op_event(
        self,
        kind: str,
        op_id: Optional[int],
        cost: float = 0.0,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Record an event on behalf of an operation.

        Events for unsampled operations are dropped (counted in
        ``dropped_events``); events with ``op_id=None`` are recorded as
        system events so unattributable costs stay visible in the trace.
        """
        if op_id is None:
            self._system.append(
                TraceEvent(kind, self._now(), None, src, dst, cost, detail)
            )
            return
        span = self._spans.get(op_id)
        if span is None:
            self._dropped_events += 1
            return
        span.events.append(TraceEvent(kind, self._now(), op_id, src, dst, cost, detail))
        span.cost += cost

    def system_event(
        self,
        kind: str,
        cost: float = 0.0,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Record an event not attributable to a single operation."""
        self._system.append(TraceEvent(kind, self._now(), None, src, dst, cost, detail))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Spans in operation-registration order (deterministic)."""
        return list(self._spans.values())

    @property
    def system_events(self) -> List[TraceEvent]:
        return list(self._system)

    @property
    def dropped_events(self) -> int:
        """Events discarded because their operation was not sampled."""
        return self._dropped_events

    @property
    def ops_seen(self) -> int:
        """Total operations observed (sampled or not)."""
        return self._op_seq

    def span(self, op_id: int) -> Optional[Span]:
        return self._spans.get(op_id)

    def total_cost(self) -> float:
        """Sum of all recorded costs (span events + system events)."""
        total = sum(s.cost for s in self._spans.values())
        total += sum(ev.cost for ev in self._system)
        return total

    def event_count(self) -> int:
        return sum(len(s.events) for s in self._spans.values()) + len(self._system)

    def summary(self) -> Dict[str, Any]:
        spans = self._spans.values()
        return {
            "ops_seen": self._op_seq,
            "spans": len(self._spans),
            "complete_spans": sum(1 for s in spans if s.end is not None),
            "span_events": sum(len(s.events) for s in spans),
            "system_events": len(self._system),
            "dropped_events": self._dropped_events,
            "total_cost": self.total_cost(),
            "sample_every": self.config.sample_every,
        }
