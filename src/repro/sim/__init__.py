"""Discrete-event simulator of the replicated shared-memory system
(paper Sections 2 and 5.2): event engine, FIFO fabric, nodes with
local/distributed queues, cost metrics, and the :class:`DSMSystem` facade —
plus the robustness extensions: seeded fault injection
(:mod:`repro.sim.faults`), the reliable exactly-once FIFO delivery layer
(:mod:`repro.sim.reliable`), crash recovery with replica resynchronization
and sequencer failover (:mod:`repro.sim.recovery`), and the runtime
consistency monitor (:mod:`repro.sim.monitor`)."""

from .cache import CACHE_POLICIES, CacheConfig, ReplicaCache
from .channel import Network
from .config import RunConfig
from .engine import EventScheduler, TimerHandle
from .faults import CRASH_SEMANTICS, CrashWindow, FaultPlan, SlowWindow
from .hedge import HedgeConfig
from .metrics import (
    Metrics,
    OpRecord,
    PartitionStats,
    ReconfigStats,
    RecoveryStats,
    ReliabilityStats,
    ReplicaCacheStats,
)
from .monitor import ConsistencyMonitor, ConsistencyViolation
from .node import ClusterView, ObjectPort, SimNode
from .partition import (
    PARTITION_POLICIES,
    FailureDetector,
    LinkFault,
    PartitionPlan,
)
from .reconfig import (
    MembershipChange,
    MembershipView,
    ReconfigManager,
    ReconfigPlan,
)
from .recovery import RecoveryManager, WriteLog
from .reliable import (
    DeliveryViolation,
    Frame,
    ReliabilityConfig,
    ReliableNetwork,
)
from .system import DSMSystem, SimulationResult

__all__ = [
    "CACHE_POLICIES",
    "CacheConfig",
    "ReplicaCache",
    "ReplicaCacheStats",
    "Network",
    "RunConfig",
    "EventScheduler",
    "TimerHandle",
    "CRASH_SEMANTICS",
    "CrashWindow",
    "FaultPlan",
    "SlowWindow",
    "HedgeConfig",
    "DeliveryViolation",
    "Frame",
    "ReliabilityConfig",
    "ReliableNetwork",
    "PARTITION_POLICIES",
    "FailureDetector",
    "LinkFault",
    "PartitionPlan",
    "Metrics",
    "OpRecord",
    "PartitionStats",
    "ReconfigStats",
    "RecoveryStats",
    "ReliabilityStats",
    "MembershipChange",
    "MembershipView",
    "ReconfigManager",
    "ReconfigPlan",
    "ClusterView",
    "ConsistencyMonitor",
    "ConsistencyViolation",
    "ObjectPort",
    "SimNode",
    "RecoveryManager",
    "WriteLog",
    "DSMSystem",
    "SimulationResult",
]
