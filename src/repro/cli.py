"""Command-line interface: ``python -m repro <command>``.

Ten commands cover the library's day-to-day uses:

* ``acc`` — evaluate the analytic steady-state cost for one protocol;
* ``rank`` — rank all protocols for a workload, cheapest first;
* ``simulate`` — run the message-passing simulator and report measured
  ``acc`` (optionally against the analytic prediction); ``--trace-out``
  additionally exports a Perfetto-loadable Chrome trace of the run;
* ``place`` — the home-vs-client activity-center placement saving;
* ``validate`` — one analytical-vs-simulation comparison cell (Table 7
  style);
* ``sweep`` — evaluate a whole parameter grid through the parallel sweep
  engine (:mod:`repro.exp`) with result caching and JSONL output;
* ``chaos`` — fuzz random fault and partition schedules with the
  consistency monitor on, shrink every violation to a minimal repro JSON,
  and replay one (``--replay``);
* ``trace`` — run one simulation with structured tracing on and export
  the Chrome trace (and optionally the JSONL event stream);
* ``profile`` — run one simulation under :mod:`cProfile` and print its
  self time per ``repro`` module and per function;
* ``scenarios`` — the declarative scenario catalog
  (:mod:`repro.scenarios`): ``list`` / ``show`` / ``run`` / ``compare`` /
  ``report`` whole committed studies without writing a benchmark script.

All commands share one flag vocabulary, declared once in the
:data:`_FLAGS` table: each row names a flag, the config field it fills,
its help and any argparse extras, and the flag's default (and type) is
read off that field.  The workload group (``--N --p --a --sigma ...``),
the run group (``--ops --warmup --seed --mean-gap``), the fault,
partition, reliability, hedging, reconfiguration, cache and tracing
groups and the ``chaos`` flags are all rows, so each spells identically
wherever it appears.  The same table builds the models: the public
helpers :func:`workload_from_args` and :func:`runconfig_from_args` fill
each config class from the rows it owns (external tools embedding this
CLI's flag vocabulary can reuse them).

Examples::

    python -m repro acc berkeley --N 8 --p 0.2 --a 3 --sigma 0.1
    python -m repro rank --N 50 --p 0.1 --a 10 --sigma 0.05 --S 5000
    python -m repro simulate dragon --N 8 --p 0.2 --ops 4000
    python -m repro validate write_once --N 3 --p 0.4 --a 2 --sigma 0.1
    python -m repro sweep --protocols write_once,write_through_v \\
        --N 3 --a 2 --p-values 0,0.2,0.4 --disturb-values 0,0.1,0.2 \\
        --ops 2000 --workers 4 --out table7.jsonl
    python -m repro scenarios list
    python -m repro scenarios run smoke-table7 --workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .chaos.generate import ChaosOptions
from .core.acc import METHODS, analytical_acc
from .core.closed_forms import weighted_quorum_acc
from .core.parameters import DEVIATION_ALIASES, Deviation, WorkloadParams
from .exp import SweepCell, SweepSpec, SweepRunner, simulate_cell
from .obs.trace import TraceConfig
from .protocols.registry import all_protocol_names, protocol_names
from .sim.config import RunConfig
from .sim.faults import CRASH_SEMANTICS, CrashWindow, FaultPlan, SlowWindow
from .sim.cache import CACHE_POLICIES, CacheConfig
from .sim.hedge import HedgeConfig
from .sim.partition import PARTITION_POLICIES, LinkFault, PartitionPlan, cut
from .sim.reconfig import MembershipChange, ReconfigPlan
from .sim.reliable import ReliabilityConfig

__all__ = ["main", "build_parser", "runconfig_from_args",
           "workload_from_args"]


def _default(cls: type, name: str):
    """The default declared on dataclass field ``name`` of ``cls``.

    Flags take their defaults from the fields they fill, so each default
    is written once, on its field.
    """
    return cls.__dataclass_fields__[name].default


def _version() -> str:
    """The installed package version (source-tree fallback)."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        from . import __version__
        return __version__


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _csv_protocols(text: str) -> List[str]:
    if text.strip() == "all":
        return protocol_names()
    return [part.strip() for part in text.split(",") if part.strip()]


# ----------------------------------------------------------------------
# the flag table (one declaration per flag for every subcommand)
# ----------------------------------------------------------------------

_KNOWN = ", ".join(all_protocol_names())


def _repeatable(metavar: str) -> Dict[str, Any]:
    """The argparse extras of a repeatable ``A:B:...`` spec flag."""
    return {"action": "append", "default": [], "metavar": metavar}


#: Every run, fabric, plan and ``chaos`` flag, group by group in ``--help``
#: order: ``(flag, owner class, field, help, argparse extras)``.  A flag
#: with an owner fills that dataclass field and takes its default from it
#: — and its type, when the default is not ``None``; a ``bool`` field
#: makes a ``store_true`` switch.  Extras override both.  A flag without
#: an owner fills no field directly.  Titled groups become ``--help``
#: sections; the ``target`` and ``chaos`` rows join their command's own
#: options.
_FLAGS: Dict[str, Tuple[Tuple[str, Optional[type], Optional[str], str,
                              Dict[str, Any]], ...]] = {
    "workload parameters": (
        ("--N", WorkloadParams, "N", "number of clients",
         {"type": int, "required": True}),
        ("--a", WorkloadParams, "a", "number of disturbing clients", {}),
        ("--beta", WorkloadParams, "beta",
         "number of activity centers (mac deviation)", {}),
        ("--S", WorkloadParams, "S", "whole-copy transfer cost parameter",
         {}),
        ("--P", WorkloadParams, "P",
         "write-parameter transfer cost parameter", {}),
        ("--deviation", None, None, "workload deviation",
         {"choices": sorted(DEVIATION_ALIASES), "default": "read"}),
        ("--hot-set", WorkloadParams, "hot_set",
         "working-set size: the first HOT_SET objects receive "
         "--hot-fraction of the accesses (both flags together; default: "
         "uniform)", {"type": int}),
        ("--hot-fraction", WorkloadParams, "hot_fraction",
         "probability mass on the hot set, in (0, 1]", {"type": float}),
    ),
    "workload point": (
        ("--p", WorkloadParams, "p", "activity-center write probability",
         {"type": float, "required": True}),
        ("--sigma", WorkloadParams, "sigma",
         "per-client read-disturbance probability", {}),
        ("--xi", WorkloadParams, "xi",
         "per-client write-disturbance probability", {}),
    ),
    "run configuration": (
        ("--ops", RunConfig, "ops",
         "operations to run (including warm-up)", {}),
        ("--warmup", RunConfig, "warmup",
         "warm-up operations (default: ops // 4)", {"type": int}),
        ("--seed", RunConfig, "seed", "workload/arrival RNG seed "
         "(sweep: the base seed cells derive from)", {}),
        ("--mean-gap", RunConfig, "mean_gap",
         "mean Poisson inter-arrival gap", {}),
    ),
    "fault injection": (
        ("--drop-rate", FaultPlan, "drop_rate",
         "per-transmission message loss probability", {}),
        ("--dup-rate", FaultPlan, "duplicate_rate",
         "per-transmission duplication probability", {}),
        ("--jitter", FaultPlan, "jitter",
         "max extra delivery delay (uniform jitter)", {}),
        ("--crash-at", None, None, "crash a node for [START, END) sim time "
         "(END omitted: never recovers); repeatable",
         _repeatable("NODE:START[:END]")),
        ("--crash-semantics", CrashWindow, "semantics",
         "what --crash-at windows destroy: 'durable' keeps protocol state "
         "across the outage, 'amnesia' wipes it (the node resynchronizes "
         "through the recovery subsystem at rejoin)",
         {"choices": CRASH_SEMANTICS}),
        ("--failover", RunConfig, "failover",
         "elect a standby sequencer when the current one crashes "
         "(deterministic lowest-id election, new epoch, no failback)", {}),
        ("--monitor", RunConfig, "monitor",
         "attach the runtime consistency monitor and report "
         "convergence/sequential-consistency violations at quiescence", {}),
        ("--fault-seed", FaultPlan, "seed",
         "seed of the fault plan's RNG stream", {}),
        ("--slow-at", None, None, "gray failure: multiply every message "
         "delay to/from NODE by FACTOR (default "
         f"{_default(SlowWindow, 'factor'):g}) for [START, END) sim time "
         "(END of 'inf': never recovers); repeatable",
         _repeatable("NODE:START:END[:FACTOR]")),
    ),
    "network partitions": (
        ("--cut", None, None, "cut both directions of the A<->B link for "
         "[START, END) sim time (END omitted: never heals); repeatable",
         _repeatable("A:B:START[:END]")),
        ("--cut-one-way", None, None, "cut only the SRC->DST direction "
         "(asymmetric partition); repeatable",
         _repeatable("SRC:DST:START[:END]")),
        ("--heartbeat-interval", PartitionPlan, "heartbeat_interval",
         "failure-detector probe period (sim time)", {}),
        ("--suspect-after", PartitionPlan, "suspect_after",
         "missed heartbeats before a node is suspected and quarantined",
         {}),
        ("--partition-policy", PartitionPlan, "policy",
         "degraded mode of a quarantined client: 'stall' holds its "
         "operations, 'serve_local_reads' answers queue-head reads from "
         "the stale replica (staleness is accounted, and such reads are "
         "exempt from the monitor's SC check)",
         {"choices": PARTITION_POLICIES}),
        ("--no-detector", None, None, "disable the heartbeat failure "
         "detector (partitioned traffic just retries)",
         {"action": "store_true"}),
        ("--partition-seed", PartitionPlan, "seed",
         "seed of the partition plan's RNG stream", {}),
    ),
    "reliable delivery": (
        ("--retry-timeout", ReliabilityConfig, "timeout",
         "base ack timeout of the reliable layer", {}),
        ("--retry-backoff", ReliabilityConfig, "backoff",
         "exponential backoff multiplier per retry", {}),
        ("--max-retries", ReliabilityConfig, "max_retries",
         "retry budget before a send is abandoned", {}),
    ),
    "hedged quorum requests": (
        ("--hedge-budget", HedgeConfig, "budget",
         "launch hedge legs to backup replicas when a quorum phase is "
         "still short T sim-time units after it started (quorum protocols "
         "only; unset: no hedging)",
         {"type": float, "default": None, "metavar": "T"}),
        ("--hedge-legs", HedgeConfig, "max_legs",
         "max extra replicas contacted per phase when the hedge budget "
         "expires", {}),
        ("--hedge-seed", HedgeConfig, "seed",
         "seed of the hedge target-selection stream", {}),
    ),
    "online reconfiguration (quorum protocols)": (
        ("--join-at", None, None, "add NODE to the replica set at sim TIME "
         "(joint-quorum transition with versioned state transfer); "
         "repeatable — events at the same TIME form one transition",
         _repeatable("NODE:TIME")),
        ("--leave-at", None, None,
         "remove NODE from the replica set at sim TIME; repeatable",
         _repeatable("NODE:TIME")),
        ("--reconfig-seed", ReconfigPlan, "seed",
         "seed of the reconfiguration plan's RNG stream (reserved for "
         "randomized schedules)", {}),
        ("--quorum-weight", None, None, "per-node quorum vote weight "
         "(unnamed nodes weigh 1; a quorum needs > half the total "
         "weight); repeatable", _repeatable("NODE:WEIGHT")),
    ),
    "bounded replica caches": (
        ("--cache-capacity", CacheConfig, "capacity",
         "bound every client to C resident replica copies (partial "
         "replication; unset: the paper's full replication)",
         {"type": int, "default": None, "metavar": "C"}),
        ("--cache-policy", CacheConfig, "policy",
         "eviction policy of the bounded cache",
         {"choices": CACHE_POLICIES}),
        ("--cache-seed", CacheConfig, "seed",
         "seed of the eviction tie-break stream", {}),
    ),
    "tracing": (
        ("--trace-out", None, None, "export a Perfetto-loadable Chrome "
         "trace of the run to PATH (enables tracing)", {"metavar": "PATH"}),
        ("--trace-jsonl", None, None, "export the trace as a JSONL event "
         "stream to PATH (enables tracing)", {"metavar": "PATH"}),
        ("--trace-sample", TraceConfig, "sample_every",
         "record every K-th operation span (default: %(default)s, every "
         "span)", {"metavar": "K"}),
    ),
    "target": (
        ("protocol", None, None, f"one of: {_KNOWN}", {}),
        ("--M", None, None, "number of shared objects",
         {"type": int, "default": 1}),
    ),
    "chaos": (
        ("--seeds", ChaosOptions, "seeds", "fuzz seeds per protocol", {}),
        ("--base-seed", ChaosOptions, "base_seed", "campaign base seed "
         "(same base seed -> byte-identical findings)", {}),
        ("--protocols", ChaosOptions, "protocols",
         "comma-separated protocols or 'all' (default: every protocol "
         f"incl. extensions; known: {_KNOWN})",
         {"type": _csv_protocols, "metavar": "NAME[,NAME...]"}),
        ("--N", ChaosOptions, "N", "clients per fuzzed system", {}),
        ("--M", ChaosOptions, "M", "shared objects per fuzzed system", {}),
        ("--ops", ChaosOptions, "ops", "operations per fuzzed run", {}),
        ("--mean-gap", ChaosOptions, "mean_gap",
         "mean Poisson inter-arrival gap", {}),
        ("--shrink-budget", ChaosOptions, "shrink_budget",
         "max simulator runs per finding's shrink", {}),
        ("--workers", ChaosOptions, "workers",
         "worker processes for the fuzzing sweep", {}),
        ("--out", None, None, "optional JSONL path for every fuzzed row",
         {}),
        ("--repro-dir", None, None, "directory for shrunk repro JSON files",
         {"default": "chaos-repros"}),
        ("--replay", None, None, "re-run a repro file's shrunk schedule "
         "instead of fuzzing", {"metavar": "REPRO_JSON"}),
        ("--trace-out", None, None, "with --replay: export a Chrome trace "
         "of the replayed schedule to PATH", {"metavar": "PATH"}),
        ("--trace-sample", TraceConfig, "sample_every",
         "with --replay --trace-out: record every K-th operation span",
         {"metavar": "K"}),
        ("--slow-windows", ChaosOptions, "slow_windows",
         "also fuzz gray failures: draw straggler slow windows and (for "
         "quorum protocols) coin-flipped hedging; off keeps schedules "
         "bit-identical to earlier campaigns", {}),
        ("--bounded-caches", ChaosOptions, "bounded_caches",
         "also fuzz partial replication: coin-flip a random bounded "
         "replica cache (capacity, eviction policy, seed) onto each cell; "
         "off keeps schedules bit-identical to earlier campaigns", {}),
        ("--quiet", None, None, "suppress per-cell progress output",
         {"action": "store_true"}),
    ),
}

#: table groups whose rows join the command's own options (no section)
_UNTITLED = ("target", "chaos")


def _dest(flag: str) -> str:
    """The argparse ``dest`` of ``flag`` (``--mean-gap`` -> ``mean_gap``)."""
    return flag.lstrip("-").replace("-", "_")


def _parent(*groups: str) -> argparse.ArgumentParser:
    """A parent parser holding the table's ``groups``, in the given order."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in groups:
        container = (parent if name in _UNTITLED
                     else parent.add_argument_group(name))
        for flag, owner, field, help_text, extras in _FLAGS[name]:
            kwargs: Dict[str, Any] = {"help": help_text}
            default = MISSING if owner is None else _default(owner, field)
            if isinstance(default, bool):
                kwargs.update(action="store_true", default=default)
            elif default is not MISSING:
                kwargs["default"] = default
                if default is not None:
                    kwargs["type"] = type(default)
            container.add_argument(flag, **{**kwargs, **extras})
    return parent


# ----------------------------------------------------------------------
# argument -> model translation (public: the one assembly path every
# subcommand shares; reusable by tools embedding this flag vocabulary)
# ----------------------------------------------------------------------

def _fields(args: argparse.Namespace, owner: type) -> Dict[str, Any]:
    """``{field: value}`` for every table flag that fills a field of
    ``owner`` (flags the command does not take are left out)."""
    return {field: getattr(args, _dest(flag))
            for rows in _FLAGS.values()
            for flag, cls, field, _, _ in rows
            if cls is owner and hasattr(args, _dest(flag))}


def _specs(args: argparse.Namespace, flag: str, types: tuple,
           optional: int, form: Optional[str] = None) -> List[tuple]:
    """Parse the repeated ``A:B:...`` values of ``flag``: each splits on
    ``:`` into ``types`` (the last ``optional`` parts may be omitted).

    ``form`` is the shape a malformed value's error names (default: the
    flag's metavar).
    """
    if form is None:
        form = next(extras["metavar"] for rows in _FLAGS.values()
                    for row_flag, _, _, _, extras in rows
                    if row_flag == flag)
    parsed = []
    for spec in getattr(args, _dest(flag), []):
        parts = spec.split(":")
        if not len(types) - optional <= len(parts) <= len(types):
            raise ValueError(f"invalid {flag} {spec!r}: expected {form}")
        parsed.append(tuple(cast(part) for cast, part in zip(types, parts)))
    return parsed


def workload_from_args(args: argparse.Namespace) -> WorkloadParams:
    """The :class:`WorkloadParams` described by the workload flag groups.

    Point flags (``--p --sigma --xi``) default to ``0`` when the
    subcommand does not take a workload point (e.g. ``sweep``, whose grid
    supplies them per cell).
    """
    kwargs = _fields(args, WorkloadParams)
    kwargs.setdefault("p", 0.0)
    return WorkloadParams(**kwargs)


def runconfig_from_args(args: argparse.Namespace) -> RunConfig:
    """The unified :class:`RunConfig` described by the run/fault/partition/
    reliability/trace flag groups — shared by every simulating subcommand.

    Each plan is built from its table rows; a malformed spec or a node
    index outside the system fails here, before any system is built.
    """
    nodes = args.N + 1
    crash = _fields(args, CrashWindow)
    faults = FaultPlan(
        **_fields(args, FaultPlan),
        crashes=[CrashWindow(*spec, **crash) for spec in
                 _specs(args, "--crash-at", (int, float, float), 1)],
        slowdowns=[SlowWindow(*spec) for spec in
                   _specs(args, "--slow-at", (int, float, float, float), 1)],
    )
    faults.validate_nodes(nodes)

    link = (int, int, float, float)
    links: List[LinkFault] = []
    for spec in _specs(args, "--cut", link, 1):
        links.extend(cut(*spec))
    links.extend(LinkFault(*spec) for spec in _specs(
        args, "--cut-one-way", link, 1, form="A:B:START[:END]"))
    partitions = None
    if links:
        partitions = PartitionPlan(**_fields(args, PartitionPlan),
                                   links=links, detect=not args.no_detector)
        partitions.validate_nodes(nodes)

    # events sharing a time coalesce into one transition (one joint-quorum
    # window), as one MembershipChange with several joins/leaves
    events: Dict[float, Tuple[list, list]] = {}
    for side, flag in enumerate(("--join-at", "--leave-at")):
        for node, at in _specs(args, flag, (int, float), 0):
            events.setdefault(at, ([], []))[side].append(node)
    reconfig = None
    if events:
        reconfig = ReconfigPlan(**_fields(args, ReconfigPlan), changes=tuple(
            MembershipChange(at=at, joins=tuple(joins), leaves=tuple(leaves))
            for at, (joins, leaves) in sorted(events.items())))
        # an inconsistent membership chain (e.g. leaving a node that
        # never joined) fails before any system is built
        reconfig.validate_membership(nodes)

    hedge = (HedgeConfig(**_fields(args, HedgeConfig))
             if getattr(args, "hedge_budget", None) is not None else None)
    tracing = (TraceConfig(**_fields(args, TraceConfig))
               if getattr(args, "trace_out", None) is not None
               or getattr(args, "trace_jsonl", None) is not None else None)
    weights = _specs(args, "--quorum-weight", (int, float), 0)
    cache = (CacheConfig(**_fields(args, CacheConfig))
             if getattr(args, "cache_capacity", None) is not None else None)
    config = RunConfig(**_fields(args, RunConfig), faults=faults,
                       partitions=partitions, tracing=tracing,
                       reconfig=reconfig,
                       quorum_weights=tuple(weights) or None, hedge=hedge,
                       cache=cache)
    if config.resolved_reliability is None:
        return config
    return config.with_(
        reliability=ReliabilityConfig(**_fields(args, ReliabilityConfig)))


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analytic performance model of data-replication DSM "
                    "(Srbljic & Budin, HPDC 1993)",
    )
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + _version())
    sub = parser.add_subparsers(dest="command", required=True)

    system = _parent("workload parameters")
    point = _parent("workload point")
    fabric = _parent("run configuration", "fault injection",
                     "network partitions", "reliable delivery",
                     "hedged quorum requests",
                     "online reconfiguration (quorum protocols)")
    cache = _parent("bounded replica caches")
    trace = _parent("tracing")
    target = _parent("target")

    p_acc = sub.add_parser("acc", help="analytic steady-state cost",
                           parents=[system, point])
    p_acc.add_argument("protocol", help=f"one of: {_KNOWN}")
    p_acc.add_argument("--method", choices=METHODS, default="auto")

    sub.add_parser("rank", help="rank all protocols",
                   parents=[system, point])

    sub.add_parser("simulate", help="run the simulator",
                   parents=[system, point, fabric, cache, trace, target])

    p_trace = sub.add_parser(
        "trace",
        help="run one simulation with structured tracing and export it",
        parents=[system, point, fabric, cache, target],
    )
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace output path (load in Perfetto "
                              "or chrome://tracing)")
    p_trace.add_argument("--jsonl", default=None,
                         help="optional JSONL event-stream output path")
    p_trace.add_argument("--sample", type=int,
                         default=_default(TraceConfig, "sample_every"),
                         metavar="K",
                         help="record every K-th operation span")

    p_prof = sub.add_parser(
        "profile",
        help="run one simulation under cProfile (self time per module "
             "and function)",
        parents=[system, point, fabric, cache, target],
    )
    p_prof.add_argument("--top", type=int, default=10,
                        help="rows to show in each table (by self time)")

    p_place = sub.add_parser(
        "place",
        help="home-vs-client activity-center placement saving",
        parents=[system, point],
    )
    p_place.add_argument("protocol", help=f"one of: {_KNOWN}")

    # a target parent of its own: set_defaults rewrites the --M action,
    # which every command built from one parent shares
    p_val = sub.add_parser("validate",
                           help="analytical vs simulated acc (Table 7 cell)",
                           parents=[system, point, fabric, _parent("target")])
    p_val.set_defaults(M=20)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate a parameter grid through the sweep engine",
        parents=[system, fabric],
    )
    p_sweep.add_argument("--protocols", type=_csv_protocols,
                         default=protocol_names(), metavar="NAME[,NAME...]",
                         help=f"comma-separated protocols or 'all' "
                              f"(default: all; known: {_KNOWN})")
    p_sweep.add_argument("--p-values", type=_csv_floats, required=True,
                         metavar="F[,F...]",
                         help="grid of activity-center write probabilities")
    p_sweep.add_argument("--disturb-values", type=_csv_floats,
                         default=[0.0], metavar="F[,F...]",
                         help="grid of sigma/xi disturbance probabilities")
    p_sweep.add_argument("--kind", choices=["analytic", "sim", "compare"],
                         default="compare",
                         help="what each cell evaluates")
    p_sweep.add_argument("--method", choices=METHODS, default="auto",
                         help="analytic evaluation method")
    p_sweep.add_argument("--M", type=int, default=20,
                         help="number of shared objects")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = in-process)")
    p_sweep.add_argument("--out", default="sweep.jsonl",
                         help="JSONL output path (streamed as cells finish)")
    p_sweep.add_argument("--cache-dir", default=".repro-sweep-cache",
                         help="result-cache directory")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the result cache")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress output")

    sub.add_parser(
        "chaos",
        help="deterministic chaos fuzzing with schedule shrinking",
        description="Fuzz random fault+partition schedules across "
                    "protocols with the consistency monitor on; every "
                    "violating schedule is shrunk to a minimal "
                    "reproducing cell and written as a repro JSON.",
        parents=[_parent("chaos")],
    )

    p_scen = sub.add_parser(
        "scenarios",
        help="the declarative scenario catalog "
             "(list/show/run/compare/report)",
        description="Work with the scenario catalog: committed JSON/TOML "
                    "documents that describe whole studies (protocol set, "
                    "workload, run configuration, sweep axes) and run "
                    "through the standard sweep engine and result cache.",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)

    scen_catalog = argparse.ArgumentParser(add_help=False)
    scen_catalog.add_argument("--catalog", default=None, metavar="DIR",
                              help="scenario catalog directory (default: "
                                   "$REPRO_SCENARIOS, ./scenarios, or the "
                                   "repository's committed catalog)")

    scen_run = argparse.ArgumentParser(add_help=False)
    scen_run.add_argument("name", help="scenario name (or a .json/.toml "
                                       "file path)")
    scen_run.add_argument("--cells", type=int, default=None, metavar="K",
                          help="run only the first K cells (smoke runs)")
    scen_run.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = in-process)")
    scen_run.add_argument("--cache-dir", default=".repro-sweep-cache",
                          help="result-cache directory (shared with the "
                               "sweep command and the benchmarks)")
    scen_run.add_argument("--no-cache", action="store_true",
                          help="disable the result cache")
    scen_run.add_argument("--quiet", action="store_true",
                          help="suppress per-cell progress output")
    scen_run.add_argument("--out", default=None, metavar="PATH",
                          help="JSONL output path (run default: "
                               "scenario-<name>.jsonl; compare writes "
                               "rows only when given)")

    p_list = scen_sub.add_parser("list", parents=[scen_catalog],
                                 help="list the catalog's scenarios")
    p_list.add_argument("--tag", default=None,
                        help="only scenarios carrying this tag")

    p_show = scen_sub.add_parser("show", parents=[scen_catalog],
                                 help="show one resolved scenario")
    p_show.add_argument("name", help="scenario name (or a .json/.toml "
                                     "file path)")
    p_show.add_argument("--json", action="store_true", dest="as_json",
                        help="print the resolved document as JSON instead "
                             "of the human-readable summary")

    scen_sub.add_parser("run", parents=[scen_catalog, scen_run],
                        help="run one scenario through the sweep engine")

    p_cmp = scen_sub.add_parser(
        "compare", parents=[scen_catalog, scen_run],
        help="run one scenario and compare its rows byte-for-byte "
             "against a committed baseline JSONL",
    )
    p_cmp.add_argument("--baseline", default=None, metavar="PATH",
                       help="baseline JSONL (default: "
                            "<catalog>/baselines/<name>.jsonl)")

    p_rep = scen_sub.add_parser(
        "report", parents=[scen_catalog],
        help="render Markdown tables from scenario result rows",
        description="Render a Markdown report — one table per scenario "
                    "family — from JSONL row files (scenario run outputs "
                    "or committed baselines). With no paths, reports on "
                    "every file under <catalog>/baselines/.",
    )
    p_rep.add_argument("paths", nargs="*", metavar="ROWS_JSONL",
                       help="JSONL row files; each file is one family "
                            "(section) named by its stem")
    p_rep.add_argument("--out", default=None, metavar="PATH",
                       help="write the Markdown report to PATH instead "
                            "of stdout")
    return parser


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _export_trace(tracer, chrome_path, jsonl_path, label: str) -> None:
    """Write the requested trace exports and report where they went."""
    if tracer is None:
        return
    from .obs.export import write_chrome_trace, write_events_jsonl

    summary = tracer.summary()
    events = summary["span_events"] + summary["system_events"]
    print(f"trace           = {summary['spans']} spans / "
          f"{summary['ops_seen']} ops, {events} events "
          f"(sample_every={summary['sample_every']}, "
          f"{summary['dropped_events']} dropped), "
          f"span cost {summary['total_cost']:.1f}")
    if chrome_path is not None:
        write_chrome_trace(tracer, chrome_path, label=label)
        print(f"chrome trace   -> {chrome_path} "
              f"(load in Perfetto or chrome://tracing)")
    if jsonl_path is not None:
        write_events_jsonl(tracer, jsonl_path)
        print(f"trace jsonl    -> {jsonl_path}")


def _simulate(args: argparse.Namespace, deviation: Deviation,
              params: WorkloadParams, config: RunConfig):
    """``(system, result)`` of the command's run: a ``kind="sim"`` cell
    through :func:`~repro.exp.runner.simulate_cell`."""
    cell = SweepCell(args.protocol, params, deviation, kind="sim",
                     M=args.M, config=config)
    return simulate_cell(cell)


def _finish_run(system, result, chrome_path, jsonl_path,
                label: str) -> int:
    """The tail every single-run command shares: the trace exports, then
    the consistency monitor's verdict; the exit code is 1 on a violation."""
    _export_trace(system.tracer, chrome_path, jsonl_path, label)
    if system.monitor is None:
        return 0
    consistency = [v for v in result.violations if v.kind != "delivery"]
    if consistency:
        print(f"consistency VIOLATIONS = {len(consistency)}")
        for v in consistency:
            print(f"  [{v.kind}] obj {v.obj}: {v.detail}")
        return 1
    suffix = (f" ({system.monitor.inconclusive} inconclusive)"
              if system.monitor.inconclusive else "")
    print(f"consistency     = ok{suffix}")
    return 0


def _cmd_simulate(args: argparse.Namespace, deviation: Deviation,
                  params: WorkloadParams) -> int:
    config = runconfig_from_args(args)
    system, result = _simulate(args, deviation, params, config)
    warmup = config.resolved_warmup
    stats = system.metrics.reliability
    if config.quorum_weights is not None:
        predicted = weighted_quorum_acc(params, deviation,
                                        config.quorum_weights)
        analytic_note = "(full replication, fault-free, weighted quorums)"
    else:
        predicted = analytical_acc(args.protocol, params, deviation)
        analytic_note = "(full replication, fault-free)"
    print(f"simulated acc   = {result.acc:.4f}")
    print(f"analytic acc    = {predicted:.4f} {analytic_note}")
    print(f"messages        = {result.messages}")
    if result.measured > 0:
        lat = result.metrics.latency_stats(skip=warmup)
        print(f"latency mean/p95 = {lat['mean']:.2f} / "
              f"{lat['p95']:.2f}")
    if (config.faults is not None or config.partitions is not None
            or config.reconfig is not None
            or config.quorum_weights is not None
            or config.hedge is not None
            or config.cache is not None):
        # one unified banner: fault plan, partition plan (detector +
        # degraded-mode policy), resolved retry policy, reconfiguration
        # plan, vote weights, failover, monitor.
        print("robustness:")
        for line in config.describe_robustness().splitlines():
            print(f"  {line}")
        if result.measured > 0:
            breakdown = system.metrics.average_cost_breakdown(skip=warmup)
            parts = (f"{breakdown['protocol']:.4f} protocol"
                     f" + {breakdown['reliability']:.4f} reliability")
            if system.spec.quorum_based:
                parts += f" (+ {breakdown['quorum']:.4f} quorum)"
            if config.hedge is not None:
                parts += f" (+ {breakdown['hedge']:.4f} hedge)"
            if config.cache is not None:
                parts += f" (+ {breakdown['cache']:.4f} cache)"
            if system.reconfig is not None:
                parts += f" (+ {breakdown['reconfig']:.4f} reconfig)"
            if system.recovery is not None:
                parts += f" (+ {breakdown['recovery']:.4f} recovery)"
            if system.detector is not None:
                parts += f" (+ {breakdown['detector']:.4f} detector)"
            print(f"acc breakdown   = {parts}")
        if system.detector is not None:
            counts = system.detector.state_counts()
            print(f"detector states = {counts['healthy']} healthy / "
                  f"{counts['demoted']} demoted / "
                  f"{counts['suspected']} suspected")
            part = system.metrics.partition
            if part.demotions or part.restorations:
                print(f"demotions       = {part.demotions} "
                      f"({part.restorations} restored)")
        if config.hedge is not None:
            print(f"hedges launched = {stats.hedges_launched}")
        if config.cache is not None:
            cstats = system.metrics.cache
            print(f"cache hits/misses = {cstats.hits}/{cstats.misses} "
                  f"({cstats.capacity_misses} capacity misses)")
            print(f"evictions       = {cstats.evictions} "
                  f"({cstats.writebacks} write-backs)")
        print(f"retransmissions = {stats.retransmissions}")
        print(f"acks            = {stats.acks}")
        print(f"drops           = {stats.drops}")
        print(f"dups suppressed = {stats.duplicates_suppressed}")
        if system.spec.quorum_based:
            # quorum liveness counters, printed unconditionally: a zero
            # confirms no phase was ever starved (the interesting datum).
            print(f"dgrams abandoned = {stats.dgram_abandoned} "
                  f"(quorum re-selection owns liveness)")
            print(f"quorum re-selections = {stats.quorum_reselections}")
        elif stats.dgram_abandoned:
            print(f"dgrams abandoned = {stats.dgram_abandoned} "
                  f"(quorum re-selection owns liveness)")
        part_stats = system.metrics.partition
        if part_stats.suppressed_violations:
            print(f"suppressed violations = "
                  f"{part_stats.suppressed_violations} "
                  f"(retries toward quarantined nodes)")
        if stats.crashes:
            print(f"crashes/recoveries = {stats.crashes}/"
                  f"{stats.recoveries}")
        if stats.delivery_failures:
            print(f"delivery failures  = {stats.delivery_failures} "
                  f"({result.incomplete_ops} ops incomplete)")
            for v in result.violations:
                if v.kind == "delivery":
                    print(f"  [delivery] {v.detail}")
        if config.partitions is not None:
            part = system.metrics.partition
            print(f"heartbeats      = {part.heartbeats} "
                  f"({part.suspicions} suspicions, "
                  f"{part.rejoins} rejoins)")
            print(f"partition time  = {part.partition_time:.1f}")
            if part.stale_reads_served:
                print(f"stale reads served = {part.stale_reads_served}")
            if part.sends_absorbed:
                print(f"sends absorbed  = {part.sends_absorbed}")
            if part.ops_stalled:
                print(f"ops stalled     = {part.ops_stalled}")
        if system.recovery is not None:
            rec = system.metrics.recovery
            print(f"epoch resets    = {rec.epoch_resets}"
                  + (f" ({rec.failovers} failovers)" if rec.failovers
                     else ""))
            print(f"ops lost/redriven = {rec.ops_lost}/{rec.ops_redriven}")
            print(f"resync cost     = {rec.resync_cost:.1f} "
                  f"({rec.resync_objects} objects)")
            print(f"quarantine time = {rec.quarantine_time:.1f}")
        if system.reconfig is not None:
            rc = system.metrics.reconfig
            members = ",".join(str(n)
                               for n in system.membership.committed)
            print(f"transitions     = {rc.transitions} "
                  f"({rc.commits} committed, {rc.aborts} aborted)")
            print(f"membership      = {{{members}}} "
                  f"(epoch {system.cluster.epoch}, "
                  f"joint time {rc.joint_time:.1f})")
            print(f"ops redriven    = {rc.ops_redriven} "
                  f"(epoch-boundary re-drives)")
            print(f"state transfer  = {rc.transfer_objects} objects, "
                  f"cost {rc.transfer_cost:.1f} "
                  f"({rc.transfer_retries} retries, "
                  f"{rc.transfers_failed} failed)")
    return _finish_run(system, result, args.trace_out, args.trace_jsonl,
                       f"simulate {args.protocol}")


def _cmd_trace(args: argparse.Namespace, deviation: Deviation,
               params: WorkloadParams) -> int:
    config = runconfig_from_args(args).with_(
        tracing=TraceConfig(sample_every=args.sample)
    )
    system, result = _simulate(args, deviation, params, config)
    print(f"simulated acc   = {result.acc:.4f}")
    print(f"messages        = {result.messages}")
    return _finish_run(system, result, args.out, args.jsonl,
                       f"trace {args.protocol}")


def _cmd_profile(args: argparse.Namespace, deviation: Deviation,
                 params: WorkloadParams) -> int:
    import cProfile
    import pstats

    profile = cProfile.Profile()
    system, result = profile.runcall(_simulate, args, deviation, params,
                                     runconfig_from_args(args))
    print(f"simulated acc   = {result.acc:.4f}")
    print(f"events executed = {system.scheduler.executed}")
    # one pass over the raw stats: self time per repro module (everything
    # outside the package is "(other)") and per function
    package = os.path.dirname(__file__) + os.sep
    modules: Dict[str, float] = {}
    functions = []
    stats = pstats.Stats(profile).stats
    for (path, line, name), (_, calls, self_s, _, _) in stats.items():
        if path.startswith(package):
            module = os.path.splitext(path[len(package):])[0]
            module = module.replace(os.sep, ".")
            label = f"{module}:{line}({name})"
        else:  # builtins have path "~" and a readable name already
            module = "(other)"
            label = (name if path == "~"
                     else f"{os.path.basename(path)}:{line}({name})")
        modules[module] = modules.get(module, 0.0) + self_s
        functions.append((self_s, calls, label))
    total = sum(modules.values()) or 1.0
    print()
    print(f"{'module':<28} {'self (s)':>10} {'share':>7}")
    for module, self_s in sorted(modules.items(),
                                 key=lambda kv: -kv[1])[:args.top]:
        print(f"{module:<28} {self_s:>10.4f} {self_s / total:>7.1%}")
    print()
    print(f"{'function':<52} {'calls':>9} {'self (s)':>10}")
    for self_s, calls, label in sorted(functions,
                                       key=lambda row: -row[0])[:args.top]:
        print(f"{label:<52} {calls:>9} {self_s:>10.4f}")
    return _finish_run(system, result, None, None, f"profile {args.protocol}")


def _cell_progress(done: int, total: int, row: dict) -> None:
    """Per-cell progress line of ``sweep`` and ``scenarios run/compare``."""
    tag = row["status"]
    detail = ""
    if tag == "ok" and row.get("discrepancy_pct") is not None:
        detail = f" disc={row['discrepancy_pct']:+.2f}%"
    elif tag == "failed":
        detail = f" ({row['error']})"
    print(f"[{done}/{total}] {row['protocol']} p={row['p']:g} "
          f"disturb={row['disturb']:g} {tag}{detail}", file=sys.stderr)


def _print_sweep_summary(result, compare: bool) -> None:
    """The cells / cache / ``max |disc|`` lines of a finished sweep."""
    print(f"cells     = {result.total} "
          f"({result.computed} computed, {result.cached} cached, "
          f"{result.failed} failed)")
    if result.cache_stats is not None:
        print(f"cache     = {result.cache_stats.hits} hits / "
              f"{result.cache_stats.lookups} lookups "
              f"({100 * result.cache_stats.hit_rate:.0f}%)")
    if compare:
        print(f"max |disc| = {result.max_abs_discrepancy_pct():.2f}%")


def _cmd_sweep(args: argparse.Namespace, deviation: Deviation) -> int:
    base = workload_from_args(args)  # the point flags default to 0 here
    config = runconfig_from_args(args)
    spec = SweepSpec.cartesian(
        protocols=args.protocols,
        base=base,
        p_values=args.p_values,
        disturb_values=args.disturb_values,
        deviation=deviation,
        kind=args.kind,
        M=args.M,
        method=args.method,
        config=config.with_(seed=None),  # cells derive their own seeds
        seed=args.seed,
    )
    if not len(spec):
        print("error: the grid has no feasible cells", file=sys.stderr)
        return 2
    runner = SweepRunner(
        spec,
        workers=args.workers,
        cache=None if args.no_cache else args.cache_dir,
        out_path=args.out,
        progress=None if args.quiet else _cell_progress,
    )
    result = runner.run()
    _print_sweep_summary(result, compare=args.kind == "compare")
    print(f"results   -> {result.out_path}")
    violations = sum(row.get("violations", 0) for row in result.rows
                     if row.get("status") == "ok")
    if violations:
        print(f"consistency VIOLATIONS = {violations}", file=sys.stderr)
        return 1
    return 1 if result.failed else 0


def _chaos_options(args: argparse.Namespace) -> ChaosOptions:
    """The fuzzing campaign described by the ``chaos`` flags."""
    return ChaosOptions(**_fields(args, ChaosOptions))


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import (load_repro, replay_repro, run_chaos, violates,
                        write_repros)

    if args.replay is not None:
        cell = load_repro(args.replay)
        print(f"replaying {args.replay}: {cell.protocol}")
        if cell.config is not None:
            if cell.config.faults is not None:
                print(f"  faults:     {cell.config.faults.describe()}")
            if cell.config.partitions is not None:
                print(f"  partitions: "
                      f"{cell.config.partitions.describe()}")
        row = replay_repro(args.replay, trace_out=args.trace_out,
                           trace_sample=args.trace_sample)
        if args.trace_out is not None:
            print(f"chrome trace -> {args.trace_out} "
                  f"(load in Perfetto or chrome://tracing)")
        if violates(row):
            kinds = ", ".join(row.get("violation_kinds", ())) or \
                row.get("error", "failed")
            print(f"reproduced: {kinds}")
            return 1
        print("did NOT reproduce (row is clean)")
        return 0

    def progress(done: int, total: int, row: dict) -> None:
        flag = " VIOLATION" if violates(row) else ""
        print(f"[{done}/{total}] {row['protocol']} "
              f"seed={row['seed']}{flag}", file=sys.stderr)

    def shrink_progress(finding) -> None:
        print(f"shrinking {finding.protocol} "
              f"fuzz_seed={finding.fuzz_seed}: "
              f"{finding.fault_windows} window(s) left after "
              f"{finding.shrink_runs} run(s)", file=sys.stderr)

    report = run_chaos(
        _chaos_options(args),
        out_path=args.out,
        progress=None if args.quiet else progress,
        shrink_progress=None if args.quiet else shrink_progress,
    )
    print(report.summary())
    if report.ok:
        return 0
    paths = write_repros(report, args.repro_dir)
    for finding, path in zip(report.findings, paths):
        print()
        print(finding.describe())
        print(f"  repro:      {path}")
    return 1


def _catalog_root(catalog, error: str) -> Optional[Path]:
    """The ``--catalog`` directory, else the default catalog's; ``None``
    (after printing ``error``) when there is neither."""
    from .scenarios import default_catalog_dir

    root = catalog.root if catalog is not None else default_catalog_dir()
    if root is None:
        print(f"error: {error}", file=sys.stderr)
        return None
    return Path(root)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import (ScenarioCatalog, compare_to_baseline,
                            load_scenario, run_scenario)

    catalog = None
    if args.catalog is not None:
        catalog = ScenarioCatalog(args.catalog)

    if args.scenarios_command == "list":
        if catalog is None:
            root = _catalog_root(None, "no scenario catalog found (set "
                                 "REPRO_SCENARIOS, create ./scenarios, or "
                                 "pass --catalog)")
            if root is None:
                return 2
            catalog = ScenarioCatalog(root)
        print(f"catalog: {catalog.root}")
        shown = 0
        for scenario in catalog.load_all():
            if args.tag is not None and args.tag not in scenario.tags:
                continue
            shown += 1
            cells = len(scenario.to_spec())
            tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
            title = scenario.title or scenario.description
            print(f"  {scenario.name:18s} {cells:4d} cells  "
                  f"{scenario.kind:8s}{tags}  {title}")
        if not shown:
            print("  (no scenarios" +
                  (f" tagged {args.tag!r})" if args.tag else ")"))
        return 0

    if args.scenarios_command == "report":
        from .scenarios import collect_families, render_report
        paths = list(args.paths)
        if not paths:
            root = _catalog_root(catalog, "no scenario catalog found (set "
                                 "REPRO_SCENARIOS, create ./scenarios, pass "
                                 "--catalog, or name rows files)")
            if root is None:
                return 2
            paths = sorted((root / "baselines").glob("*.jsonl"))
            if not paths:
                print(f"error: no baseline rows under {root}/baselines",
                      file=sys.stderr)
                return 2
        try:
            report = render_report(collect_families(paths))
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.out is not None:
            Path(args.out).write_text(report, encoding="utf-8")
            print(f"report    -> {args.out}")
        else:
            print(report, end="")
        return 0

    if args.scenarios_command == "show":
        scenario = load_scenario(args.name, catalog=catalog)
        if args.as_json:
            import json as _json
            print(_json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
        else:
            print(scenario.describe())
        return 0

    # run / compare share the execution path
    scenario = load_scenario(args.name, catalog=catalog)
    out_path = args.out
    if args.scenarios_command == "run" and out_path is None:
        out_path = f"scenario-{scenario.name}.jsonl"
    result = run_scenario(
        scenario,
        cells=args.cells,
        workers=args.workers,
        cache=None if args.no_cache else args.cache_dir,
        out_path=out_path,
        progress=None if args.quiet else _cell_progress,
    )
    print(f"scenario  = {scenario.name}")
    _print_sweep_summary(result, compare=scenario.kind == "compare")
    if args.scenarios_command == "compare":
        baseline = args.baseline
        if baseline is None:
            root = _catalog_root(catalog, "no catalog to locate the "
                                 "baseline in; pass --baseline")
            if root is None:
                return 2
            baseline = root / "baselines" / f"{scenario.name}.jsonl"
        diff = compare_to_baseline(result, baseline)
        print(f"baseline  = {baseline}")
        print(f"compare   = {diff.summary()}")
        if not diff.identical:
            for line in diff.missing_in_baseline[:3]:
                print(f"  not in baseline: {line}", file=sys.stderr)
            for line in diff.missing_in_run[:3]:
                print(f"  not reproduced:  {line}", file=sys.stderr)
            return 1
        return 0
    print(f"results   -> {result.out_path}")
    return 1 if result.failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    deviation = DEVIATION_ALIASES[getattr(args, "deviation", "read")]
    try:
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if getattr(args, "protocol", None) is not None:
            # resolve early for a uniform "unknown protocol" error.
            from .protocols.registry import get_protocol
            get_protocol(args.protocol)
        if args.command == "sweep":
            for name in args.protocols:
                from .protocols.registry import get_protocol
                get_protocol(name)
            return _cmd_sweep(args, deviation)
        params = workload_from_args(args)
        if args.command == "acc":
            value = analytical_acc(args.protocol, params, deviation,
                                   method=args.method)
            print(f"acc({args.protocol}, {deviation.value}) = {value:.4f}")
        elif args.command == "rank":
            from .core.comparison import ALL_PROTOCOLS, rank_protocols
            print(f"{'protocol':20s} {'acc':>12}")
            for name, acc in rank_protocols(params, deviation,
                                            ALL_PROTOCOLS):
                print(f"{name:20s} {acc:12.4f}")
        elif args.command == "simulate":
            return _cmd_simulate(args, deviation, params)
        elif args.command == "trace":
            return _cmd_trace(args, deviation, params)
        elif args.command == "profile":
            return _cmd_profile(args, deviation, params)
        elif args.command == "place":
            from .core.placement import placement_advantage
            client, home, saving = placement_advantage(
                args.protocol, params, deviation
            )
            print(f"client placement acc = {client:.4f}")
            print(f"home placement acc   = {home:.4f}")
            print(f"saving               = {saving:.4f}"
                  + ("  (placement-indifferent)" if abs(saving) < 1e-9
                     else ""))
        elif args.command == "validate":
            from .validation.compare import compare_cell
            config = runconfig_from_args(args)
            cell = compare_cell(args.protocol, params, deviation, M=args.M,
                                config=config)
            print(f"analytic  = {cell.acc_analytic:.4f}")
            print(f"simulated = {cell.acc_sim:.4f}")
            print(f"discrepancy = {cell.discrepancy_pct:.2f}%")
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
