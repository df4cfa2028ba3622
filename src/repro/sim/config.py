"""The unified run configuration shared by every entry point.

:class:`RunConfig` is the one keyword-only value object that says "run a
workload": :class:`repro.sim.system.DSMSystem` builds its fabric and
subsystems from it, and its ``run_workload``,
:func:`repro.validation.compare.compare_cell`, ``python -m repro`` and the
sweep engine (:mod:`repro.exp`) accept it verbatim; it is the only
declaration of each run knob.

A :class:`RunConfig` is immutable, hashable-by-content through
:meth:`to_dict` (the sweep engine's result cache keys on it), and fully
round-trippable through :meth:`from_dict` so worker processes can rebuild
it from a plain-JSON payload.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..util import field_kwargs

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import TraceConfig
    from .cache import CacheConfig
    from .faults import FaultPlan
    from .hedge import HedgeConfig
    from .partition import PartitionPlan
    from .reconfig import ReconfigPlan
    from .reliable import ReliabilityConfig

__all__ = ["RunConfig"]

#: ``(field, module, class)`` for each field whose value, when set, must
#: be an instance of that class
_TYPED_FIELDS = (
    ("tracing", "repro.obs.trace", "TraceConfig"),
    ("hedge", "repro.sim.hedge", "HedgeConfig"),
    ("cache", "repro.sim.cache", "CacheConfig"),
)


def _canonical_weights(weights) -> Optional[Tuple[Tuple[int, float], ...]]:
    """Canonicalize quorum vote weights to sorted ``(node, weight)`` pairs.

    Accepts a mapping or pair iterable; validates nodes and weights.
    All-default weights (every named node weighing 1) collapse to
    ``None`` — they drive a run bit-identical to the unweighted count
    majority, and the serialization must be canonical for the cache.
    """
    if weights is None:
        return None
    items = weights.items() if hasattr(weights, "items") else weights
    out: Dict[int, float] = {}
    for node, weight in items:
        node = int(node)
        weight = float(weight)
        if node < 1:
            raise ValueError(f"quorum weight node must be >= 1, got {node}")
        if node in out:
            raise ValueError(f"duplicate quorum weight for node {node}")
        if not (weight > 0 and math.isfinite(weight)):
            raise ValueError(
                f"quorum weight for node {node} must be a positive "
                f"finite number, got {weight}"
            )
        out[node] = weight
    if not out or all(w == 1.0 for w in out.values()):
        return None
    return tuple(sorted(out.items()))


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Everything that parameterizes one workload run (keyword-only).

    Args:
        ops: total operations to issue, including warm-up.
        warmup: completions to discard before measuring; ``None`` means
            ``ops // 4`` (the CLI's historical default).
        seed: RNG seed for arrivals and workload sampling; ``None`` runs
            unseeded (non-reproducible).
        mean_gap: mean Poisson inter-arrival gap in units of channel
            latency.
        max_events: event-count safety net for the scheduler.
        faults: optional :class:`FaultPlan`; ``None`` keeps the
            paper-faithful fault-free fabric.
        partitions: optional :class:`PartitionPlan` of link-level faults
            (timed, possibly asymmetric cuts and per-link overrides) plus
            the failure-detector knobs; layered over ``faults``.
        reliability: optional :class:`ReliabilityConfig`; defaults are
            applied when ``faults``, ``partitions``, ``reconfig`` or
            ``hedge`` is given without one.
        failover: enable sequencer failover (deterministic standby
            election when the current sequencer crashes); only meaningful
            together with a fault plan containing crash windows.
        monitor: attach the runtime consistency monitor and report
            violations on the run result.
        tracing: optional :class:`~repro.obs.TraceConfig`; attaches a
            structured tracer to the run (``SimulationResult.tracer``).
            Tracing never changes simulation results — it only observes —
            but it is carried in the canonical serialization so worker
            processes rebuild it faithfully.
        reconfig: optional :class:`~repro.sim.reconfig.ReconfigPlan`
            scheduling online replica-set membership changes (quorum
            protocols only); ``None`` — or a plan with no changes —
            keeps the static membership.
        quorum_weights: optional per-node vote weights for the quorum
            family, as a mapping or ``(node, weight)`` pairs (unnamed
            nodes weigh 1).  Canonicalized to a sorted pair tuple;
            all-default weights collapse to ``None``.
        hedge: optional :class:`~repro.sim.hedge.HedgeConfig` arming
            hedged quorum requests (quorum protocols only); ``None``
            keeps every phase waiting on its primary quorum.
        cache: optional :class:`~repro.sim.cache.CacheConfig` bounding
            each client to a fixed number of resident replica copies
            (partial replication); ``None`` keeps the paper's full
            replication.
    """

    ops: int = 4000
    warmup: Optional[int] = None
    seed: Optional[int] = 0
    mean_gap: float = 25.0
    max_events: int = 50_000_000
    faults: Optional[FaultPlan] = None
    partitions: Optional[PartitionPlan] = None
    reliability: Optional[ReliabilityConfig] = None
    failover: bool = False
    monitor: bool = False
    tracing: Optional[TraceConfig] = None
    reconfig: Optional[ReconfigPlan] = None
    quorum_weights: Optional[Tuple[Tuple[int, float], ...]] = None
    hedge: Optional[HedgeConfig] = None
    cache: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.warmup is not None and not (0 <= self.warmup < self.ops):
            raise ValueError(
                f"warmup must satisfy 0 <= warmup < ops, got "
                f"warmup={self.warmup}, ops={self.ops}"
            )
        if self.mean_gap <= 0:
            raise ValueError(f"mean_gap must be positive, got {self.mean_gap}")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        # a no-fault plan is the same as no plan (pay-for-what-you-use)
        if self.faults is not None and self.faults.is_none:
            object.__setattr__(self, "faults", None)
        if self.partitions is not None and self.partitions.is_none:
            object.__setattr__(self, "partitions", None)
        # a no-change reconfiguration plan is the same as no plan
        if self.reconfig is not None and self.reconfig.is_none:
            object.__setattr__(self, "reconfig", None)
        # each class is imported only when its field is set, so a plain
        # run loads no subsystem (pay-for-what-you-use)
        for name, module, class_name in _TYPED_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, getattr(
                    importlib.import_module(module), class_name)):
                raise TypeError(
                    f"{name} must be a {class_name} or None, got "
                    f"{type(value).__name__}"
                )
        object.__setattr__(
            self, "quorum_weights",
            _canonical_weights(self.quorum_weights),
        )

    @property
    def resolved_warmup(self) -> int:
        """The effective warm-up count (``ops // 4`` when unset)."""
        return self.warmup if self.warmup is not None else self.ops // 4

    @property
    def resolved_reliability(self) -> Optional[ReliabilityConfig]:
        """The effective reliable-delivery config of a run.

        An explicit ``reliability`` wins.  Otherwise the defaults apply
        when any subsystem that rides the reliable transport is
        configured: a fault or partition plan, a reconfiguration plan (its
        epoch commits void the old view's in-flight frames through the
        transport) or hedging (its legs ride the datagram transport and
        the losers are cancelled through it).  :class:`DSMSystem
        <repro.sim.system.DSMSystem>` builds what this reports, and a
        plain run imports no transport.
        """
        if self.reliability is not None or all(
                plan is None for plan in (self.faults, self.partitions,
                                          self.reconfig, self.hedge)):
            return self.reliability
        from .reliable import ReliabilityConfig
        return ReliabilityConfig()

    @property
    def gray_failure(self) -> bool:
        """Whether the run models gray failures: hedged quorum requests
        or slow windows in the fault plan.  It arms the quorum family's
        demote-only failure detector and the gray-failure sweep columns.
        """
        return self.hedge is not None or (
            self.faults is not None and self.faults.has_slowdowns)

    def with_(self, **changes: Any) -> "RunConfig":
        """Return a copy with the given fields replaced (validates again)."""
        return replace(self, **changes)

    def describe_robustness(self) -> str:
        """The full robustness configuration, one labelled line per layer.

        Historically the CLI banner assembled this piecemeal — the
        degraded-mode policy and detector knobs only surfaced through
        ``partitions.describe()`` and the failover/monitor switches and
        the *resolved* retry policy (which defaults silently whenever a
        fault or partition plan is present) were not shown at all.  This
        method is the single place that renders everything that makes a
        run robust (or deliberately not): fault plan, partition plan with
        detector and degraded-mode policy, effective reliable-delivery
        retry policy, failover, and the consistency monitor.
        """
        lines = [
            "faults:      " + (self.faults.describe()
                               if self.faults is not None else "none"),
            "partitions:  " + (self.partitions.describe()
                               if self.partitions is not None else "none"),
        ]
        reliability = self.resolved_reliability
        if reliability is not None:
            lines.append(
                f"reliability: timeout={reliability.timeout:g}, "
                f"backoff={reliability.backoff:g}, "
                f"max_retries={reliability.max_retries}"
                + ("" if self.reliability is not None else " (defaulted)")
            )
        else:
            lines.append("reliability: none (paper-faithful fabric)")
        if self.reconfig is not None:
            lines.append("reconfig:    " + self.reconfig.describe())
        if self.quorum_weights is not None:
            lines.append("weights:     " + ", ".join(
                f"{node}={weight:g}" for node, weight in self.quorum_weights
            ))
        if self.hedge is not None:
            lines.append("hedge:       " + self.hedge.describe())
        if self.cache is not None:
            lines.append("cache:       " + self.cache.describe())
        lines.append("failover:    " + ("on" if self.failover else "off"))
        lines.append("monitor:     " + ("on" if self.monitor else "off"))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # canonical serialization (cache keys, worker payloads)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON dict that identifies this configuration.

        The dict is *canonical*: two configs that would drive bit-identical
        runs serialize identically (the ``warmup=None`` shorthand is
        resolved, a no-fault plan collapses to ``None``), so it is safe to
        hash for the sweep engine's result cache.
        """
        data: Dict[str, Any] = {
            "ops": int(self.ops),
            "warmup": int(self.resolved_warmup),
            "seed": None if self.seed is None else int(self.seed),
            "mean_gap": float(self.mean_gap),
            "max_events": int(self.max_events),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "partitions": (
                None if self.partitions is None
                else self.partitions.to_dict()
            ),
            "reliability": (
                None if self.reliability is None
                else self.reliability.to_dict()
            ),
            "failover": bool(self.failover),
            "monitor": bool(self.monitor),
            "tracing": (
                None if self.tracing is None else self.tracing.to_dict()
            ),
        }
        # pay-for-what-you-use: the reconfiguration and vote-weight keys
        # appear only when configured, so every pre-existing config — and
        # every cell id, cache key and committed baseline row hashed from
        # it — stays byte-identical to the static-membership era.
        if self.reconfig is not None:
            data["reconfig"] = self.reconfig.to_dict()
        if self.quorum_weights is not None:
            data["quorum_weights"] = [
                [int(n), float(w)] for n, w in self.quorum_weights
            ]
        if self.hedge is not None:
            data["hedge"] = self.hedge.to_dict()
        if self.cache is not None:
            data["cache"] = self.cache.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Every key must be understood: an unknown key raises
        ``ValueError`` (with a did-you-mean suggestion) instead of being
        silently dropped, so a stale scenario file or payload cannot
        half-apply.  Missing keys take the dataclass defaults.
        """
        from ..obs.trace import TraceConfig
        from .cache import CacheConfig
        from .faults import FaultPlan
        from .hedge import HedgeConfig
        from .partition import PartitionPlan
        from .reconfig import ReconfigPlan
        from .reliable import ReliabilityConfig

        return cls(**field_kwargs(
            cls, data, "RunConfig",
            faults=FaultPlan.from_dict,
            partitions=PartitionPlan.from_dict,
            reliability=ReliabilityConfig.from_dict,
            tracing=TraceConfig.from_dict,
            reconfig=ReconfigPlan.from_dict,
            hedge=HedgeConfig.from_dict,
            cache=CacheConfig.from_dict,
        ))
