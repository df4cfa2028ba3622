"""Outside-in per-layer self-time accounting for the benchmark's layer run.

The layer run wraps the public entry points of each simulator layer from
outside — nothing under ``src/`` changes.  :class:`LayerRun` installs the
wrappers before any system is built and restores every patched attribute
in ``try``/``finally``.  A scope stack subtracts the time spent in child
scopes, so each scope reports exclusive (self) time; recording is live
only while :attr:`Scopes.active` is set, which the caller does for the
timed phase alone.

Delivery handlers registered through ``Network.attach`` (and
``ReliableNetwork.attach``) are wrapped at registration and attributed to
the layer that registered them: the reliable transport's frame handler on
the physical fabric, a node's message handler otherwise.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYER_SHARES", "LayerRun", "Scopes", "layer_metrics"]

#: parent name recorded for scopes opened with an empty stack
TIMED_PHASE = "<timed phase>"

#: engine steps (with every span nested in them) kept for the Chrome trace
TRACE_STEPS = 2000

#: ``(module, class, methods)`` whose methods are wrapped in place; the
#: scope name is ``<layer>.<method>``
_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine", "EventScheduler",
     ("step", "schedule", "schedule_at")),
    ("engine", "repro.sim.engine", "TimerHandle", ("cancel",)),
    ("channel", "repro.sim.channel", "Network", ("send",)),
    ("reliable", "repro.sim.reliable", "ReliableNetwork",
     ("send", "send_unordered", "cancel_dgrams", "advance_epoch")),
    ("node", "repro.sim.node", "SimNode", ("submit",)),
    ("node", "repro.sim.node", "ObjectPort",
     ("enqueue_request", "pump", "deliver")),
    ("metrics", "repro.sim.metrics", "Metrics",
     ("register_op", "record_message", "record_complete",
      "record_reliability_cost", "record_quorum_cost", "record_hedge_cost",
      "record_recovery_cost", "record_reconfig_cost",
      "record_detector_cost")),
    ("cache", "repro.sim.cache", "ReplicaCache", ("on_dispatch", "after_op")),
    ("monitor", "repro.sim.monitor", "ConsistencyMonitor",
     ("on_submit", "on_complete", "on_install", "on_degraded_read",
      "check")),
    ("recovery", "repro.sim.recovery", "RecoveryManager",
     ("submission_lost", "is_quarantined", "is_partition_quarantined",
      "stalled_ops", "quarantine_partitioned", "rejoin_partitioned")),
    ("recovery", "repro.sim.partition", "FailureDetector", ("start",)),
)

#: ``(module, function)`` wrapped wherever a ``repro`` module holds it
_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("core", "repro.core.acc", "analytical_acc"),
    ("core", "repro.core.markov", "solve_chain"),
    ("exp", "repro.exp.runner", "run_cell"),
    ("exp", "repro.exp.runner", "run_sweep"),
    ("scenarios", "repro.scenarios.loader", "load_scenario"),
    ("scenarios", "repro.scenarios.runner", "compare_to_baseline"),
    ("chaos", "repro.chaos.generate", "generate_cell"),
)

#: share metric -> scope-name prefixes whose self time it sums
LAYER_SHARES: Dict[str, Tuple[str, ...]] = {
    "engine.self_share": ("engine.",),
    "system.self_share": ("system.",),
    "channel.self_share": ("channel.",),
    "reliable.self_share": ("reliable.",),
    "node.self_share": ("node.",),
    "protocol.self_share": ("protocol.",),
    "metrics.self_share": ("metrics.",),
    "cache.self_share": ("cache.",),
    "monitor.hooks_self_share": ("monitor.on_",),
    "monitor.check_self_share": ("monitor.check",),
    "recovery.self_share": ("recovery.",),
    "workload.self_share": ("workload.",),
    "core.self_share": ("core.",),
    "exp.self_share": ("exp.",),
    "scenarios.self_share": ("scenarios.",),
    "chaos.generate_self_share": ("chaos.",),
}


class Scopes:
    """Exclusive-time accounting over a stack of open scopes.

    Each open scope is a ``[name, child_seconds]`` frame.  When a
    scope closes, its inclusive duration is added to its parent's child
    time, and its own self time is the inclusive duration minus the child
    time it accumulated.
    """

    def __init__(self, trace_steps: int = TRACE_STEPS) -> None:
        #: recording switch; wrappers pass straight through while False
        self.active = False
        #: scope name -> exclusive seconds
        self.self_s: Dict[str, float] = {}
        #: scope name -> calls (a scope re-entered directly under itself,
        #: as through ``super()``, counts once)
        self.calls: Counter = Counter()
        #: (parent, child) -> [calls, inclusive seconds]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: live-event high-water mark seen after each schedule call
        self.pending_peak = 0
        #: per-run statistics harvested from each finished system
        self.stats: Counter = Counter()
        #: Chrome trace "X" events of the first ``trace_steps`` steps
        self.spans: List[dict] = []
        self._trace_left = trace_steps
        self._tracing = 0  # depth of traced frames currently open
        self._stack: List[list] = []
        self._origin = perf_counter()

    def reset(self) -> None:
        """Forget everything recorded so far (start of the timed phase)."""
        self.self_s.clear()
        self.calls.clear()
        self.edges.clear()
        self.stats.clear()
        self.spans.clear()
        self.pending_peak = 0
        self._origin = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as scope ``name`` whenever recording is active."""
        scopes = self
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        edges = self.edges
        clock = perf_counter
        is_step = name == "engine.step"

        def scoped(*args, **kwargs):
            if not scopes.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            traced = scopes._tracing > 0 or (is_step
                                             and scopes._trace_left > 0)
            if traced:
                if scopes._tracing == 0:
                    scopes._trace_left -= 1
                scopes._tracing += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + elapsed - frame[1]
                pname = TIMED_PHASE
                if parent is not None:
                    parent[1] += elapsed
                    pname = parent[0]
                if pname != name:
                    calls[name] += 1
                edge = edges.get((pname, name))
                if edge is None:
                    edges[(pname, name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if traced:
                    scopes._tracing -= 1
                    scopes.spans.append({
                        "name": name, "cat": name.split(".", 1)[0],
                        "ph": "X", "pid": 1, "tid": 1,
                        "ts": (start - scopes._origin) * 1e6,
                        "dur": elapsed * 1e6,
                    })

        return scoped

    def edge_table(self) -> List[dict]:
        """Parent -> child scope edges, heaviest inclusive time first."""
        rows = [
            {"parent": p, "child": c, "calls": int(n), "inclusive_s": s}
            for (p, c), (n, s) in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["inclusive_s"])
        return rows

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        return {"traceEvents": sorted(self.spans, key=lambda e: e["ts"]),
                "displayTimeUnit": "ms"}


def _harvest(scopes: Scopes, system) -> None:
    """Add one finished system's counters to ``scopes.stats``."""
    m = system.metrics
    stats = scopes.stats
    stats["events"] += system.scheduler.executed
    stats["retransmissions"] += m.reliability.retransmissions
    stats["acks"] += m.reliability.acks
    stats["drops"] += m.reliability.drops
    stats["duplicates"] += m.reliability.duplicates_injected
    stats["cache_hits"] += m.cache.hits
    stats["cache_misses"] += m.cache.misses
    stats["cache_evictions"] += m.cache.evictions
    stats["cache_writebacks"] += m.cache.writebacks
    stats["resync_objects"] += m.recovery.resync_objects
    stats["heartbeats"] += m.partition.heartbeats
    if system.monitor is not None and system.monitor.inconclusive:
        stats["sc_inconclusive"] += 1


class LayerRun:
    """Install the layer wrappers; restore every patched attribute.

    Use as a context manager around set-up and the timed phase; switch
    :attr:`Scopes.active` on for the timed phase only.  Patching happens
    on entry, so wrappers are in place before any system is built.
    """

    def __init__(self, scopes: Scopes) -> None:
        self.scopes = scopes
        #: (owner, attribute, original value) in patch order
        self.patched: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerRun":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.scopes.active = False
        self.restore()

    def _set(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        scopes = self.scopes
        for layer, module, cls_name, methods in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._set(cls, method, scopes.wrap(
                    f"{layer}.{method}", cls.__dict__[method]))
        self._install_subclasses()
        self._install_attach()
        self._install_run_workload()
        self._install_pending_peak()
        for layer, module, func in _FUNCTIONS:
            original = getattr(importlib.import_module(module), func)
            wrapped = scopes.wrap(f"{layer}.{func}", original)
            # callers bound the function at import time, so replace every
            # reference a loaded repro module holds
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if ((name == "repro" or name.startswith("repro."))
                        and mod.__dict__.get(func) is original):
                    self._set(mod, func, wrapped)

    def _install_subclasses(self) -> None:
        """Wrap every concrete protocol handler and workload sampler."""
        from repro.protocols.base import ProtocolProcess
        from repro.workloads.base import Workload

        for base, layer, methods in (
                (ProtocolProcess, "protocol", ("on_request", "on_message")),
                (Workload, "workload", ("sample",))):
            for cls in _subclasses(base):
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is not None:
                        self._set(cls, method, self.scopes.wrap(
                            f"{layer}.{method}", fn))

    def _install_attach(self) -> None:
        from repro.sim.channel import Network
        from repro.sim.reliable import ReliableNetwork

        scopes = self.scopes
        for cls in (Network, ReliableNetwork):
            original = cls.__dict__["attach"]

            def attach(net, node_id, handler, _original=original):
                owner = getattr(handler, "__self__", None)
                scope = ("reliable.on_frame"
                         if isinstance(owner, ReliableNetwork)
                         else "node.on_message")
                return _original(net, node_id, scopes.wrap(scope, handler))

            self._set(cls, "attach", attach)

    def _install_run_workload(self) -> None:
        from repro.sim.system import DSMSystem

        scopes = self.scopes
        original = DSMSystem.__dict__["run_workload"]

        def run_workload(system, *args, **kwargs):
            try:
                return original(system, *args, **kwargs)
            finally:
                if scopes.active:
                    _harvest(scopes, system)

        self._set(DSMSystem, "run_workload",
                  scopes.wrap("system.run_workload", run_workload))

    def _install_pending_peak(self) -> None:
        """Track the live-event high-water mark after every schedule."""
        from repro.sim.engine import EventScheduler

        scopes = self.scopes
        for method in ("schedule", "schedule_at"):
            inner = EventScheduler.__dict__[method]  # already scoped

            def schedule(sched, *args, _inner=inner, **kwargs):
                handle = _inner(sched, *args, **kwargs)
                if scopes.active:
                    pending = len(sched)
                    if pending > scopes.pending_peak:
                        scopes.pending_peak = pending
                return handle

            self._set(EventScheduler, method, schedule)


def _subclasses(base) -> List[type]:
    out, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def layer_metrics(scopes: Scopes, timed_s: float,
                  ops: int) -> Dict[str, float]:
    """Per-layer shares and counts of one layer-run repeat.

    Shares are self seconds over the timed phase's wall time;
    ``unattributed_share`` is what no scope claimed.  Counts come from the
    wrappers and from the statistics each finished system carried.
    """
    shares = {
        metric: sum(s for name, s in scopes.self_s.items()
                    if name.startswith(prefixes)) / timed_s
        for metric, prefixes in LAYER_SHARES.items()
    }
    calls = scopes.calls
    stats = scopes.stats
    sends = calls["channel.send"]
    lookups = stats["cache_hits"] + stats["cache_misses"]
    counts = {
        "engine.events_per_op": stats["events"] / ops,
        "engine.schedule_calls": calls["engine.schedule"]
        + calls["engine.schedule_at"],
        "engine.timer_cancels": calls["engine.cancel"],
        "engine.pending_peak": scopes.pending_peak,
        "channel.sends": sends,
        "channel.dropped": stats["drops"],
        "channel.duplicated": stats["duplicates"],
        "reliable.retransmissions": stats["retransmissions"],
        "reliable.acks": stats["acks"],
        "reliable.goodput": (calls["node.on_message"] / sends
                             if sends else 0.0),
        "protocol.on_request_calls": calls["protocol.on_request"],
        "protocol.on_message_calls": calls["protocol.on_message"],
        "protocol.messages_per_op": calls["protocol.on_message"] / ops,
        "metrics.record_message_calls": calls["metrics.record_message"],
        "cache.hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "cache.evictions": stats["cache_evictions"],
        "cache.writebacks": stats["cache_writebacks"],
        "monitor.sc_inconclusive": stats["sc_inconclusive"],
        "recovery.resync_objects": stats["resync_objects"],
        "detector.heartbeats": stats["heartbeats"],
        "core.solve_calls": calls["core.solve_chain"],
        "exp.cells": calls["exp.run_cell"],
    }
    out = dict(shares)
    out.update(counts)
    out["unattributed_share"] = 1.0 - sum(shares.values())
    return out


def write_results(scopes: Scopes, results_dir: Path, workload: str,
                  metrics: Dict[str, float], run: dict) -> None:
    """Write ``layers-<workload>.json`` (the ``run`` description, metrics,
    self times and the parent -> child edge table) and
    ``trace-<workload>.json`` (Chrome trace of the first engine steps)."""
    results_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        **run,
        "metrics": metrics,
        "self_s": dict(sorted(scopes.self_s.items(),
                              key=lambda kv: -kv[1])),
        "calls": dict(sorted(scopes.calls.items())),
        "edges": scopes.edge_table(),
    }
    (results_dir / f"layers-{workload}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    (results_dir / f"trace-{workload}.json").write_text(
        json.dumps(scopes.chrome_trace()) + "\n", encoding="utf-8")
