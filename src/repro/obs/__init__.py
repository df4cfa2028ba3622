"""repro.obs -- observability for the DSM simulator.

Three layers:

* :mod:`repro.obs.trace` -- structured, seed-deterministic per-operation
  spans and events in simulated time (:class:`Tracer`,
  :class:`TraceConfig`).
* :mod:`repro.obs.registry` -- counters/gauges/histograms that the
  simulator, sweep runner and chaos runner publish into
  (:class:`MetricsRegistry`).
* :mod:`repro.obs.export` -- trace export as Chrome trace-event JSON or
  a JSONL event stream.

Wall-clock profiling attaches from outside: ``repro profile`` runs one
simulation under the standard library's :mod:`cProfile`.  See
``docs/observability.md`` for the span model and overhead numbers.
"""

from .trace import Span, TraceConfig, TraceEvent, Tracer
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .export import (
    CHROME_TRACE_SCHEMA,
    SYSTEM_PID,
    chrome_trace,
    events_jsonl,
    trace_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)

__all__ = [
    "Span",
    "TraceConfig",
    "TraceEvent",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CHROME_TRACE_SCHEMA",
    "SYSTEM_PID",
    "chrome_trace",
    "events_jsonl",
    "trace_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
]
