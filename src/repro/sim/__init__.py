"""Discrete-event simulator of the replicated shared-memory system
(paper Sections 2 and 5.2): event engine, FIFO fabric, nodes with
local/distributed queues, cost metrics, and the :class:`DSMSystem` facade —
plus the robustness extensions: seeded fault injection
(:mod:`repro.sim.faults`), the reliable exactly-once FIFO delivery layer
(:mod:`repro.sim.reliable`), crash recovery with replica resynchronization
and sequencer failover (:mod:`repro.sim.recovery`), and the runtime
consistency monitor (:mod:`repro.sim.monitor`).

Names resolve on first access, and each subsystem module is imported only
by the run that builds it.  A run on the paper's fault-free fabric loads
:mod:`~repro.sim.config`, :mod:`~repro.sim.system`,
:mod:`~repro.sim.engine`, :mod:`~repro.sim.channel`,
:mod:`~repro.sim.node` and :mod:`~repro.sim.metrics` from this package,
and from the rest of ``repro`` only the workload parameters, the message
vocabulary, the protocol base, the registry and the protocol it runs.
"""

from ..util import lazy_exports

# (submodule, names) pairs in the order of ``__all__``
__all__, __getattr__, __dir__ = lazy_exports(__name__, (
    ("cache", ("CACHE_POLICIES", "CacheConfig", "ReplicaCache")),
    ("metrics", ("ReplicaCacheStats",)),
    ("channel", ("Network",)),
    ("config", ("RunConfig",)),
    ("engine", ("EventScheduler", "TimerHandle")),
    ("faults", ("CRASH_SEMANTICS", "CrashWindow", "FaultPlan",
                "SlowWindow")),
    ("hedge", ("HedgeConfig",)),
    ("reliable", ("DeliveryViolation", "Frame", "ReliabilityConfig",
                  "ReliableNetwork")),
    ("partition", ("PARTITION_POLICIES", "FailureDetector", "LinkFault",
                   "PartitionPlan")),
    ("metrics", ("Metrics", "OpRecord", "PartitionStats", "ReconfigStats",
                 "RecoveryStats", "ReliabilityStats")),
    ("reconfig", ("MembershipChange", "MembershipView", "ReconfigManager",
                  "ReconfigPlan")),
    ("node", ("ClusterView",)),
    ("monitor", ("ConsistencyMonitor", "ConsistencyViolation")),
    ("node", ("ObjectPort", "SimNode")),
    ("recovery", ("RecoveryManager", "WriteLog")),
    ("system", ("DSMSystem", "SimulationResult")),
))
