"""repro — reproduction of Srbljic & Budin (HPDC 1993),
"Analytical Performance Evaluation of Data Replication Based Shared Memory
Model".

The package provides:

* :mod:`repro.core` — the analytic model: five-parameter workloads, trace
  discovery, exact Markov evaluation, closed forms, characteristic
  surfaces, crossover lines (the paper's primary contribution);
* :mod:`repro.machines` — the message vocabulary of the protocols
  (Section 3 message tokens and their costs);
* :mod:`repro.protocols` — the eight data-replication coherence protocols;
* :mod:`repro.sim` — the message-passing distributed-system simulator;
* :mod:`repro.workloads` — the synthetic workload generators;
* :mod:`repro.validation` — analytical-vs-simulation comparison (Table 7);
* :mod:`repro.exp` — the parallel sweep engine with result caching;
* :mod:`repro.obs` — observability: structured tracing, a metrics
  registry, wall-clock profiling and Chrome-trace export;
* :mod:`repro.scenarios` — the declarative scenario catalog: whole
  studies as validated JSON/TOML documents with ``extends:`` inheritance;
* :mod:`repro.api` — the one-stop facade (:func:`~repro.api.acc`,
  :func:`~repro.api.rank`, :func:`~repro.api.simulate`,
  :func:`~repro.api.load_scenario`, :func:`~repro.api.run_scenario`).

Quickstart (the facade)::

    from repro import api

    point = {"N": 8, "p": 0.2, "a": 3, "sigma": 0.1}
    api.acc("berkeley", point)            # analytic cost
    api.rank(point)[0]                    # cheapest protocol
    api.simulate("berkeley", point).acc   # simulated cost
    api.run_scenario("smoke-table7")      # a committed catalog entry

Quickstart (the underlying objects)::

    from repro import (
        Deviation, DSMSystem, RunConfig, WorkloadParams, analytical_acc,
    )
    from repro.workloads import read_disturbance_workload

    params = WorkloadParams(N=8, p=0.2, a=3, sigma=0.1, S=100, P=30)
    predicted = analytical_acc("berkeley", params, Deviation.READ)

    system = DSMSystem("berkeley", N=8, S=100, P=30)
    measured = system.run_workload(
        read_disturbance_workload(params),
        RunConfig(ops=4000, warmup=500, seed=0),
    ).acc

Grid-shaped experiments go through the sweep engine::

    from repro.exp import SweepSpec, run_sweep
"""

__version__ = "1.5.0"

from .util import lazy_exports

#: every public name, keyed by the submodule that defines it (``api`` is
#: that submodule itself).  Names resolve on first access, so
#: ``import repro.sim`` loads neither the analytic model nor the sweep
#: engine, the scenario catalog or the facade.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core": ("ALL_PROTOCOLS", "Deviation", "WorkloadParams", "acc_table",
             "analytical_acc", "best_protocol", "closed_form_acc",
             "has_closed_form", "ideal_acc", "markov_acc", "rank_protocols"),
    "obs": ("MetricsRegistry", "Profiler", "TraceConfig", "Tracer",
            "write_chrome_trace"),
    "protocols": ("PROTOCOLS", "UnknownProtocolError", "all_protocol_names",
                  "get_protocol", "protocol_names"),
    "sim": ("ConsistencyMonitor", "ConsistencyViolation", "CrashWindow",
            "DeliveryViolation", "DSMSystem", "FaultPlan", "LinkFault",
            "PartitionPlan", "ReliabilityConfig", "RunConfig",
            "SimulationResult"),
    "validation": ("compare_cell", "comparison_table"),
    "exp": ("ResultCache", "SweepCell", "SweepRunner", "SweepSpec",
            "run_sweep"),
    "scenarios": ("Scenario", "ScenarioCatalog", "ScenarioError"),
    "api": ("api", "load_scenario", "run_scenario"),
})

__all__.append("__version__")
