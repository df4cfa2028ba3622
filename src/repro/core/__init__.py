"""The analytic performance model — the paper's primary contribution.

Workload parameters (Section 4.2), trace/cost calculus (Section 4.1), the
exact steady-state Markov engine and per-protocol kernels (Section 4.3),
closed forms (eqns. (3)-(5) and Table 6), characteristic surfaces
(Figures 5-6), crossover lines and protocol comparison (Section 5.1).
"""

from .acc import acc_table, analytical_acc
from .chains import build_chain, deviation_groups, markov_acc
from .closed_forms import (
    closed_form_acc,
    has_closed_form,
    ideal_acc,
    write_through_trace_probabilities,
)
from .comparison import (
    ALL_PROTOCOLS,
    RegionMap,
    best_protocol,
    min_acc_region_map,
    rank_protocols,
)
from .crossover import (
    BoundaryComparison,
    compare_boundary,
    empirical_boundary,
    empirical_crossover_p,
    paper_line_dragon_vs_berkeley,
    paper_line_synapse_vs_wtv,
    paper_line_wtv_vs_wt,
)
from .kernels import KERNELS, Env, ProtocolKernel, get_kernel
from .parameters import (
    Deviation,
    WorkloadParams,
    feasible_sigma_max,
    feasible_xi_max,
    parameter_grid,
)
from .placement import home_center_acc, placement_advantage
from .surfaces import FIGURE_PANELS, Surface, acc_surface, figure_surfaces
from .trace_discovery import TraceClass, discover_traces, format_trace_table
from .traces import CostExpr, Trace, TraceSet, WRITE_THROUGH_TRACES

__all__ = [
    "acc_table",
    "analytical_acc",
    "build_chain",
    "deviation_groups",
    "markov_acc",
    "closed_form_acc",
    "has_closed_form",
    "ideal_acc",
    "write_through_trace_probabilities",
    "ALL_PROTOCOLS",
    "RegionMap",
    "best_protocol",
    "min_acc_region_map",
    "rank_protocols",
    "BoundaryComparison",
    "compare_boundary",
    "empirical_boundary",
    "empirical_crossover_p",
    "paper_line_dragon_vs_berkeley",
    "paper_line_synapse_vs_wtv",
    "paper_line_wtv_vs_wt",
    "KERNELS",
    "Env",
    "ProtocolKernel",
    "get_kernel",
    "Deviation",
    "WorkloadParams",
    "feasible_sigma_max",
    "feasible_xi_max",
    "parameter_grid",
    "home_center_acc",
    "placement_advantage",
    "TraceClass",
    "discover_traces",
    "format_trace_table",
    "FIGURE_PANELS",
    "Surface",
    "acc_surface",
    "figure_surfaces",
    "CostExpr",
    "Trace",
    "TraceSet",
    "WRITE_THROUGH_TRACES",
]
