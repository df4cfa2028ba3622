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
* ``profile`` — run one simulation under the wall-clock profiler and
  print the hot-path table;
* ``scenarios`` — the declarative scenario catalog
  (:mod:`repro.scenarios`): ``list`` / ``show`` / ``run`` / ``compare`` /
  ``report`` whole committed studies without writing a benchmark script.

All commands share the same flag vocabulary through parent parsers: the
workload group (``--N --p --a --sigma ...``), the run group
(``--ops --warmup --seed --mean-gap``), the fault group (``--drop-rate
--dup-rate --jitter --crash-at --crash-semantics --failover --monitor
--fault-seed``) and the reliability group (``--retry-timeout
--retry-backoff --max-retries``) spell identically wherever they appear.
The argparse → model translation lives in two public helpers —
:func:`workload_from_args` and :func:`runconfig_from_args` — shared by
every subcommand (external tools embedding this CLI's flag vocabulary
can reuse them).

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
import sys
from typing import List, Optional

from .chaos.generate import ChaosOptions
from .core.acc import analytical_acc
from .core.closed_forms import weighted_quorum_acc
from .core.comparison import ALL_PROTOCOLS, rank_protocols
from .core.parameters import Deviation, WorkloadParams
from .core.placement import placement_advantage
from .exp import SweepCell, SweepSpec, SweepRunner, simulate_cell
from .obs.export import write_chrome_trace, write_events_jsonl
from .obs.profile import Profiler
from .obs.trace import TraceConfig
from .protocols.registry import all_protocol_names, protocol_names
from .sim.config import RunConfig
from .sim.faults import CRASH_SEMANTICS, CrashWindow, FaultPlan, SlowWindow
from .sim.cache import CACHE_POLICIES, CacheConfig
from .sim.hedge import HedgeConfig
from .sim.partition import PARTITION_POLICIES, LinkFault, PartitionPlan, cut
from .sim.reconfig import MembershipChange, ReconfigPlan
from .sim.reliable import ReliabilityConfig
from .validation.compare import compare_cell

__all__ = ["main", "build_parser", "runconfig_from_args",
           "workload_from_args"]

_DEVIATIONS = {
    "read": Deviation.READ,
    "write": Deviation.WRITE,
    "mac": Deviation.MULTIPLE_ACTIVITY_CENTERS,
}


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


# ----------------------------------------------------------------------
# shared parent parsers (one flag vocabulary for every subcommand)
# ----------------------------------------------------------------------

def _system_parent() -> argparse.ArgumentParser:
    """``--N --a --beta --S --P --deviation``: the system/cost parameters."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("workload parameters")
    group.add_argument("--N", type=int, required=True,
                       help="number of clients")
    group.add_argument("--a", type=int,
                       default=_default(WorkloadParams, "a"),
                       help="number of disturbing clients")
    group.add_argument("--beta", type=int,
                       default=_default(WorkloadParams, "beta"),
                       help="number of activity centers (mac deviation)")
    group.add_argument("--S", type=float,
                       default=_default(WorkloadParams, "S"),
                       help="whole-copy transfer cost parameter")
    group.add_argument("--P", type=float,
                       default=_default(WorkloadParams, "P"),
                       help="write-parameter transfer cost parameter")
    group.add_argument("--deviation", choices=sorted(_DEVIATIONS),
                       default="read", help="workload deviation")
    group.add_argument("--hot-set", type=int,
                       default=_default(WorkloadParams, "hot_set"),
                       help="working-set size: the first HOT_SET objects "
                            "receive --hot-fraction of the accesses "
                            "(both flags together; default: uniform)")
    group.add_argument("--hot-fraction", type=float,
                       default=_default(WorkloadParams, "hot_fraction"),
                       help="probability mass on the hot set, in (0, 1]")
    return parent


def _point_parent() -> argparse.ArgumentParser:
    """``--p --sigma --xi``: one workload-plane point."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("workload point")
    group.add_argument("--p", type=float, required=True,
                       help="activity-center write probability")
    group.add_argument("--sigma", type=float,
                       default=_default(WorkloadParams, "sigma"),
                       help="per-client read-disturbance probability")
    group.add_argument("--xi", type=float,
                       default=_default(WorkloadParams, "xi"),
                       help="per-client write-disturbance probability")
    return parent


def _run_parent() -> argparse.ArgumentParser:
    """``--ops --warmup --seed --mean-gap``: the run configuration."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("run configuration")
    group.add_argument("--ops", type=int, default=_default(RunConfig, "ops"),
                       help="operations to run (including warm-up)")
    group.add_argument("--warmup", type=int,
                       default=_default(RunConfig, "warmup"),
                       help="warm-up operations (default: ops // 4)")
    group.add_argument("--seed", type=int, default=_default(RunConfig, "seed"),
                       help="workload/arrival RNG seed "
                            "(sweep: the base seed cells derive from)")
    group.add_argument("--mean-gap", type=float,
                       default=_default(RunConfig, "mean_gap"),
                       help="mean Poisson inter-arrival gap")
    return parent


def _fault_parent() -> argparse.ArgumentParser:
    """``--drop-rate --dup-rate --jitter --crash-at --fault-seed``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("fault injection")
    group.add_argument("--drop-rate", type=float,
                       default=_default(FaultPlan, "drop_rate"),
                       help="per-transmission message loss probability")
    group.add_argument("--dup-rate", type=float,
                       default=_default(FaultPlan, "duplicate_rate"),
                       help="per-transmission duplication probability")
    group.add_argument("--jitter", type=float,
                       default=_default(FaultPlan, "jitter"),
                       help="max extra delivery delay (uniform jitter)")
    group.add_argument("--crash-at", action="append", default=[],
                       metavar="NODE:START[:END]",
                       help="crash a node for [START, END) sim time "
                            "(END omitted: never recovers); repeatable")
    group.add_argument("--crash-semantics", choices=CRASH_SEMANTICS,
                       default=_default(CrashWindow, "semantics"),
                       help="what --crash-at windows destroy: 'durable' "
                            "keeps protocol state across the outage, "
                            "'amnesia' wipes it (the node resynchronizes "
                            "through the recovery subsystem at rejoin)")
    group.add_argument("--failover", action="store_true",
                       help="elect a standby sequencer when the current "
                            "one crashes (deterministic lowest-id "
                            "election, new epoch, no failback)")
    group.add_argument("--monitor", action="store_true",
                       help="attach the runtime consistency monitor and "
                            "report convergence/sequential-consistency "
                            "violations at quiescence")
    group.add_argument("--fault-seed", type=int,
                       default=_default(FaultPlan, "seed"),
                       help="seed of the fault plan's RNG stream")
    group.add_argument("--slow-at", action="append", default=[],
                       metavar="NODE:START:END[:FACTOR]",
                       help="gray failure: multiply every message delay "
                            "to/from NODE by FACTOR (default "
                            f"{_default(SlowWindow, 'factor'):g}) for "
                            "[START, END) sim time (END of 'inf': never "
                            "recovers); repeatable")
    return parent


def _partition_parent() -> argparse.ArgumentParser:
    """``--cut --cut-one-way --heartbeat-interval ...``: link faults."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("network partitions")
    group.add_argument("--cut", action="append", default=[],
                       metavar="A:B:START[:END]",
                       help="cut both directions of the A<->B link for "
                            "[START, END) sim time (END omitted: never "
                            "heals); repeatable")
    group.add_argument("--cut-one-way", action="append", default=[],
                       metavar="SRC:DST:START[:END]",
                       help="cut only the SRC->DST direction "
                            "(asymmetric partition); repeatable")
    group.add_argument("--heartbeat-interval", type=float,
                       default=_default(PartitionPlan, "heartbeat_interval"),
                       help="failure-detector probe period (sim time)")
    group.add_argument("--suspect-after", type=int,
                       default=_default(PartitionPlan, "suspect_after"),
                       help="missed heartbeats before a node is "
                            "suspected and quarantined")
    group.add_argument("--partition-policy", choices=PARTITION_POLICIES,
                       default=_default(PartitionPlan, "policy"),
                       help="degraded mode of a quarantined client: "
                            "'stall' holds its operations, "
                            "'serve_local_reads' answers queue-head "
                            "reads from the stale replica (staleness is "
                            "accounted, and such reads are exempt from "
                            "the monitor's SC check)")
    group.add_argument("--no-detector", action="store_true",
                       help="disable the heartbeat failure detector "
                            "(partitioned traffic just retries)")
    group.add_argument("--partition-seed", type=int,
                       default=_default(PartitionPlan, "seed"),
                       help="seed of the partition plan's RNG stream")
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    """``--trace-out --trace-jsonl --trace-sample``: trace export."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("tracing")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="export a Perfetto-loadable Chrome trace of "
                            "the run to PATH (enables tracing)")
    group.add_argument("--trace-jsonl", default=None, metavar="PATH",
                       help="export the trace as a JSONL event stream "
                            "to PATH (enables tracing)")
    group.add_argument("--trace-sample", type=int,
                       default=_default(TraceConfig, "sample_every"),
                       metavar="K",
                       help="record every K-th operation span "
                            "(default: %(default)s, every span)")
    return parent


def _reliability_parent() -> argparse.ArgumentParser:
    """``--retry-timeout --retry-backoff --max-retries``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("reliable delivery")
    group.add_argument("--retry-timeout", type=float,
                       default=_default(ReliabilityConfig, "timeout"),
                       help="base ack timeout of the reliable layer")
    group.add_argument("--retry-backoff", type=float,
                       default=_default(ReliabilityConfig, "backoff"),
                       help="exponential backoff multiplier per retry")
    group.add_argument("--max-retries", type=int,
                       default=_default(ReliabilityConfig, "max_retries"),
                       help="retry budget before a send is abandoned")
    group = parent.add_argument_group("hedged quorum requests")
    group.add_argument("--hedge-budget", type=float, default=None,
                       metavar="T",
                       help="launch hedge legs to backup replicas when a "
                            "quorum phase is still short T sim-time "
                            "units after it started (quorum protocols "
                            "only; unset: no hedging)")
    group.add_argument("--hedge-legs", type=int,
                       default=_default(HedgeConfig, "max_legs"),
                       help="max extra replicas contacted per phase "
                            "when the hedge budget expires")
    group.add_argument("--hedge-seed", type=int,
                       default=_default(HedgeConfig, "seed"),
                       help="seed of the hedge target-selection stream")
    return parent


def _reconfig_parent() -> argparse.ArgumentParser:
    """``--join-at --leave-at --reconfig-seed --quorum-weight``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "online reconfiguration (quorum protocols)"
    )
    group.add_argument("--join-at", action="append", default=[],
                       metavar="NODE:TIME",
                       help="add NODE to the replica set at sim TIME "
                            "(joint-quorum transition with versioned "
                            "state transfer); repeatable — events at "
                            "the same TIME form one transition")
    group.add_argument("--leave-at", action="append", default=[],
                       metavar="NODE:TIME",
                       help="remove NODE from the replica set at sim "
                            "TIME; repeatable")
    group.add_argument("--reconfig-seed", type=int,
                       default=_default(ReconfigPlan, "seed"),
                       help="seed of the reconfiguration plan's RNG "
                            "stream (reserved for randomized schedules)")
    group.add_argument("--quorum-weight", action="append", default=[],
                       metavar="NODE:WEIGHT",
                       help="per-node quorum vote weight (unnamed nodes "
                            "weigh 1; a quorum needs > half the total "
                            "weight); repeatable")
    return parent


# ----------------------------------------------------------------------
# argument -> model translation (public: the one assembly path every
# subcommand shares; reusable by tools embedding this flag vocabulary)
# ----------------------------------------------------------------------

def workload_from_args(args: argparse.Namespace) -> WorkloadParams:
    """The :class:`WorkloadParams` described by the workload flag groups.

    Point flags (``--p --sigma --xi``) default to ``0`` when the
    subcommand does not take a workload point (e.g. ``sweep``, whose grid
    supplies them per cell).
    """
    kwargs = {name: getattr(args, name)
              for name in WorkloadParams.__dataclass_fields__
              if hasattr(args, name)}
    kwargs.setdefault("p", 0.0)
    return WorkloadParams(**kwargs)


def _parse_crash(spec: str, semantics: str) -> CrashWindow:
    """Parse a ``NODE:START[:END]`` crash-window argument."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"invalid --crash-at {spec!r}: expected NODE:START[:END]"
        )
    node, start = int(parts[0]), float(parts[1])
    if len(parts) == 3:
        return CrashWindow(node, start, float(parts[2]),
                           semantics=semantics)
    return CrashWindow(node, start, semantics=semantics)


def _parse_slow(spec: str) -> SlowWindow:
    """Parse a ``NODE:START:END[:FACTOR]`` slow-window argument."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"invalid --slow-at {spec!r}: expected NODE:START:END[:FACTOR]"
        )
    node, start, end = int(parts[0]), float(parts[1]), float(parts[2])
    if len(parts) == 4:
        return SlowWindow(node, start, end, factor=float(parts[3]))
    return SlowWindow(node, start, end)


def _fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Build the fault plan from the fault flags (None when fault-free)."""
    crashes = [_parse_crash(spec, args.crash_semantics)
               for spec in args.crash_at]
    slowdowns = [_parse_slow(spec) for spec in args.slow_at]
    plan = FaultPlan(seed=args.fault_seed, drop_rate=args.drop_rate,
                     duplicate_rate=args.dup_rate, jitter=args.jitter,
                     crashes=crashes, slowdowns=slowdowns)
    if plan.is_none:
        return None
    # fail loudly on a typo'd node index before any system is built
    plan.validate_nodes(args.N + 1)
    return plan


def _parse_link(spec: str, flag: str) -> tuple:
    """Parse an ``A:B:START[:END]`` link-cut argument."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"invalid {flag} {spec!r}: expected A:B:START[:END]"
        )
    a, b, start = int(parts[0]), int(parts[1]), float(parts[2])
    end = float(parts[3]) if len(parts) == 4 else None
    return a, b, start, end


def _partition_plan(args: argparse.Namespace) -> Optional[PartitionPlan]:
    """Build the partition plan from the partition flags (or None)."""
    links: List[LinkFault] = []
    for spec in args.cut:
        a, b, start, end = _parse_link(spec, "--cut")
        links.extend(cut(a, b, start, end)
                     if end is not None else cut(a, b, start))
    for spec in args.cut_one_way:
        a, b, start, end = _parse_link(spec, "--cut-one-way")
        links.append(LinkFault(a, b, start, end)
                     if end is not None else LinkFault(a, b, start))
    if not links:
        return None
    plan = PartitionPlan(
        seed=args.partition_seed,
        links=links,
        heartbeat_interval=args.heartbeat_interval,
        suspect_after=args.suspect_after,
        policy=args.partition_policy,
        detect=not args.no_detector,
    )
    plan.validate_nodes(args.N + 1)
    return plan


def _parse_member_event(spec: str, flag: str) -> tuple:
    """Parse a ``NODE:TIME`` membership-event argument."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(
            f"invalid {flag} {spec!r}: expected NODE:TIME"
        )
    return int(parts[0]), float(parts[1])


def _reconfig_plan(args: argparse.Namespace) -> Optional[ReconfigPlan]:
    """Build the reconfiguration plan from ``--join-at``/``--leave-at``.

    Events sharing the same time coalesce into one transition (one
    joint-quorum window), matching the semantics of a single
    :class:`MembershipChange` with several joins/leaves.
    """
    events: dict = {}
    for spec in getattr(args, "join_at", []):
        node, at = _parse_member_event(spec, "--join-at")
        events.setdefault(at, ([], []))[0].append(node)
    for spec in getattr(args, "leave_at", []):
        node, at = _parse_member_event(spec, "--leave-at")
        events.setdefault(at, ([], []))[1].append(node)
    if not events:
        return None
    changes = [
        MembershipChange(at=at, joins=tuple(joins), leaves=tuple(leaves))
        for at, (joins, leaves) in sorted(events.items())
    ]
    plan = ReconfigPlan(seed=args.reconfig_seed, changes=tuple(changes))
    # fail loudly on an inconsistent membership chain before any system
    # is built (e.g. leaving a node that never joined)
    plan.validate_membership(args.N + 1)
    return plan


def _quorum_weights(args: argparse.Namespace) -> Optional[tuple]:
    """Parse repeated ``--quorum-weight NODE:WEIGHT`` flags (or None)."""
    pairs = []
    for spec in getattr(args, "quorum_weight", []):
        parts = spec.split(":")
        if len(parts) != 2:
            raise ValueError(
                f"invalid --quorum-weight {spec!r}: expected NODE:WEIGHT"
            )
        pairs.append((int(parts[0]), float(parts[1])))
    return tuple(pairs) if pairs else None


def _trace_config(args: argparse.Namespace) -> Optional[TraceConfig]:
    """The tracing config implied by the trace flags (or None)."""
    wants_trace = (getattr(args, "trace_out", None) is not None
                   or getattr(args, "trace_jsonl", None) is not None)
    if not wants_trace:
        return None
    return TraceConfig(sample_every=args.trace_sample)


def _hedge_config(args: argparse.Namespace) -> Optional[HedgeConfig]:
    """The hedging config implied by ``--hedge-budget`` (or None)."""
    if args.hedge_budget is None:
        return None
    return HedgeConfig(budget=args.hedge_budget, max_legs=args.hedge_legs,
                       seed=args.hedge_seed)


def _cache_parent() -> argparse.ArgumentParser:
    """``--cache-capacity --cache-policy --cache-seed``: bounded caches."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("bounded replica caches")
    group.add_argument("--cache-capacity", type=int, default=None,
                       metavar="C",
                       help="bound every client to C resident replica "
                            "copies (partial replication; unset: the "
                            "paper's full replication)")
    group.add_argument("--cache-policy", choices=CACHE_POLICIES,
                       default=_default(CacheConfig, "policy"),
                       help="eviction policy of the bounded cache")
    group.add_argument("--cache-seed", type=int,
                       default=_default(CacheConfig, "seed"),
                       help="seed of the eviction tie-break stream")
    return parent


def _cache_config(args: argparse.Namespace) -> Optional[CacheConfig]:
    """The cache config implied by ``--cache-capacity`` (or None)."""
    capacity = getattr(args, "cache_capacity", None)
    if capacity is None:
        return None
    return CacheConfig(capacity=capacity, policy=args.cache_policy,
                       seed=args.cache_seed)


def runconfig_from_args(args: argparse.Namespace) -> RunConfig:
    """The unified :class:`RunConfig` described by the run/fault/partition/
    reliability/trace flag groups — shared by every simulating subcommand."""
    faults = _fault_plan(args)
    partitions = _partition_plan(args)
    reconfig = _reconfig_plan(args)
    hedge = _hedge_config(args)
    reliability = (
        ReliabilityConfig(timeout=args.retry_timeout,
                          backoff=args.retry_backoff,
                          max_retries=args.max_retries)
        if (faults is not None or partitions is not None
            or reconfig is not None or hedge is not None) else None
    )
    return RunConfig(ops=args.ops, warmup=args.warmup, seed=args.seed,
                     mean_gap=args.mean_gap, faults=faults,
                     partitions=partitions, reliability=reliability,
                     failover=args.failover, monitor=args.monitor,
                     tracing=_trace_config(args), reconfig=reconfig,
                     quorum_weights=_quorum_weights(args), hedge=hedge,
                     cache=_cache_config(args))


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _csv_protocols(text: str) -> List[str]:
    if text.strip() == "all":
        return protocol_names()
    return [part.strip() for part in text.split(",") if part.strip()]


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

    known = ", ".join(all_protocol_names())
    system, point = _system_parent(), _point_parent()
    run, fault, rel = _run_parent(), _fault_parent(), _reliability_parent()
    part, trace = _partition_parent(), _trace_parent()
    reconf, cache = _reconfig_parent(), _cache_parent()

    p_acc = sub.add_parser("acc", help="analytic steady-state cost",
                           parents=[system, point])
    p_acc.add_argument("protocol", help=f"one of: {known}")
    p_acc.add_argument("--method", choices=["auto", "closed_form", "markov"],
                       default="auto")

    sub.add_parser("rank", help="rank all protocols",
                   parents=[system, point])

    p_sim = sub.add_parser("simulate", help="run the simulator",
                           parents=[system, point, run, fault, part, rel,
                                    reconf, cache, trace])
    p_sim.add_argument("protocol", help=f"one of: {known}")
    p_sim.add_argument("--M", type=int, default=1,
                       help="number of shared objects")

    p_trace = sub.add_parser(
        "trace",
        help="run one simulation with structured tracing and export it",
        parents=[system, point, run, fault, part, rel, reconf, cache],
    )
    p_trace.add_argument("protocol", help=f"one of: {known}")
    p_trace.add_argument("--M", type=int, default=1,
                         help="number of shared objects")
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
        help="run one simulation under the wall-clock profiler",
        parents=[system, point, run, fault, part, rel, reconf, cache],
    )
    p_prof.add_argument("protocol", help=f"one of: {known}")
    p_prof.add_argument("--M", type=int, default=1,
                        help="number of shared objects")
    p_prof.add_argument("--top", type=int, default=10,
                        help="hot paths to show (by total time)")

    p_place = sub.add_parser(
        "place",
        help="home-vs-client activity-center placement saving",
        parents=[system, point],
    )
    p_place.add_argument("protocol", help=f"one of: {known}")

    p_val = sub.add_parser("validate",
                           help="analytical vs simulated acc (Table 7 cell)",
                           parents=[system, point, run, fault, part, rel,
                                    reconf])
    p_val.add_argument("protocol", help=f"one of: {known}")
    p_val.add_argument("--M", type=int, default=20,
                       help="number of shared objects")

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate a parameter grid through the sweep engine",
        parents=[system, run, fault, part, rel, reconf],
    )
    p_sweep.add_argument("--protocols", type=_csv_protocols,
                         default=protocol_names(), metavar="NAME[,NAME...]",
                         help=f"comma-separated protocols or 'all' "
                              f"(default: all; known: {known})")
    p_sweep.add_argument("--p-values", type=_csv_floats, required=True,
                         metavar="F[,F...]",
                         help="grid of activity-center write probabilities")
    p_sweep.add_argument("--disturb-values", type=_csv_floats,
                         default=[0.0], metavar="F[,F...]",
                         help="grid of sigma/xi disturbance probabilities")
    p_sweep.add_argument("--kind", choices=["analytic", "sim", "compare"],
                         default="compare",
                         help="what each cell evaluates")
    p_sweep.add_argument("--method",
                         choices=["auto", "closed_form", "markov"],
                         default="auto", help="analytic evaluation method")
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

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic chaos fuzzing with schedule shrinking",
        description="Fuzz random fault+partition schedules across "
                    "protocols with the consistency monitor on; every "
                    "violating schedule is shrunk to a minimal "
                    "reproducing cell and written as a repro JSON.",
    )
    p_chaos.add_argument("--seeds", type=int,
                         default=_default(ChaosOptions, "seeds"),
                         help="fuzz seeds per protocol")
    p_chaos.add_argument("--base-seed", type=int,
                         default=_default(ChaosOptions, "base_seed"),
                         help="campaign base seed (same base seed -> "
                              "byte-identical findings)")
    p_chaos.add_argument("--protocols", type=_csv_protocols,
                         default=_default(ChaosOptions, "protocols"),
                         metavar="NAME[,NAME...]",
                         help="comma-separated protocols or 'all' "
                              "(default: every protocol incl. extensions; "
                              f"known: {known})")
    p_chaos.add_argument("--N", type=int, default=_default(ChaosOptions, "N"),
                         help="clients per fuzzed system")
    p_chaos.add_argument("--M", type=int, default=_default(ChaosOptions, "M"),
                         help="shared objects per fuzzed system")
    p_chaos.add_argument("--ops", type=int,
                         default=_default(ChaosOptions, "ops"),
                         help="operations per fuzzed run")
    p_chaos.add_argument("--mean-gap", type=float,
                         default=_default(ChaosOptions, "mean_gap"),
                         help="mean Poisson inter-arrival gap")
    p_chaos.add_argument("--shrink-budget", type=int,
                         default=_default(ChaosOptions, "shrink_budget"),
                         help="max simulator runs per finding's shrink")
    p_chaos.add_argument("--workers", type=int,
                         default=_default(ChaosOptions, "workers"),
                         help="worker processes for the fuzzing sweep")
    p_chaos.add_argument("--out", default=None,
                         help="optional JSONL path for every fuzzed row")
    p_chaos.add_argument("--repro-dir", default="chaos-repros",
                         help="directory for shrunk repro JSON files")
    p_chaos.add_argument("--replay", metavar="REPRO_JSON", default=None,
                         help="re-run a repro file's shrunk schedule "
                              "instead of fuzzing")
    p_chaos.add_argument("--trace-out", metavar="PATH", default=None,
                         help="with --replay: export a Chrome trace of "
                              "the replayed schedule to PATH")
    p_chaos.add_argument("--trace-sample", type=int,
                         default=_default(TraceConfig, "sample_every"),
                         metavar="K",
                         help="with --replay --trace-out: record every "
                              "K-th operation span")
    p_chaos.add_argument("--slow-windows", action="store_true",
                         help="also fuzz gray failures: draw straggler "
                              "slow windows and (for quorum protocols) "
                              "coin-flipped hedging; off keeps schedules "
                              "bit-identical to earlier campaigns")
    p_chaos.add_argument("--bounded-caches", action="store_true",
                         help="also fuzz partial replication: coin-flip "
                              "a random bounded replica cache (capacity, "
                              "eviction policy, seed) onto each cell; off "
                              "keeps schedules bit-identical to earlier "
                              "campaigns")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress output")

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
              params: WorkloadParams, config: RunConfig, profiler=None):
    """``(system, result)`` of the command's run: a ``kind="sim"`` cell
    through :func:`~repro.exp.runner.simulate_cell`."""
    cell = SweepCell(args.protocol, params, deviation, kind="sim",
                     M=args.M, config=config)
    return simulate_cell(cell, profiler=profiler)


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
    profiler = Profiler()
    system, result = _simulate(args, deviation, params,
                               runconfig_from_args(args), profiler)
    print(f"simulated acc   = {result.acc:.4f}")
    print(f"events executed = {system.scheduler.executed}")
    print()
    print(profiler.format_table(top=args.top))
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
    return ChaosOptions(
        base_seed=args.base_seed,
        seeds=args.seeds,
        protocols=tuple(args.protocols),
        N=args.N,
        M=args.M,
        ops=args.ops,
        mean_gap=args.mean_gap,
        shrink_budget=args.shrink_budget,
        workers=args.workers,
        slow_windows=args.slow_windows,
        bounded_caches=args.bounded_caches,
    )


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


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import (ScenarioCatalog, compare_to_baseline,
                            default_catalog_dir, load_scenario, run_scenario)

    catalog = None
    if args.catalog is not None:
        catalog = ScenarioCatalog(args.catalog)

    if args.scenarios_command == "list":
        if catalog is None:
            root = default_catalog_dir()
            if root is None:
                print("error: no scenario catalog found (set "
                      "REPRO_SCENARIOS, create ./scenarios, or pass "
                      "--catalog)", file=sys.stderr)
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
            root = (catalog.root if catalog is not None
                    else default_catalog_dir())
            if root is None:
                print("error: no scenario catalog found (set "
                      "REPRO_SCENARIOS, create ./scenarios, pass "
                      "--catalog, or name rows files)", file=sys.stderr)
                return 2
            from pathlib import Path
            paths = sorted((Path(root) / "baselines").glob("*.jsonl"))
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
            from pathlib import Path
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
            root = (catalog.root if catalog is not None
                    else default_catalog_dir())
            if root is None:
                print("error: no catalog to locate the baseline in; pass "
                      "--baseline", file=sys.stderr)
                return 2
            from pathlib import Path
            baseline = Path(root) / "baselines" / f"{scenario.name}.jsonl"
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
    deviation = _DEVIATIONS[getattr(args, "deviation", "read")]
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
            client, home, saving = placement_advantage(
                args.protocol, params, deviation
            )
            print(f"client placement acc = {client:.4f}")
            print(f"home placement acc   = {home:.4f}")
            print(f"saving               = {saving:.4f}"
                  + ("  (placement-indifferent)" if abs(saving) < 1e-9
                     else ""))
        elif args.command == "validate":
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
