"""The analytic performance model — the paper's primary contribution.

Workload parameters (Section 4.2), trace discovery (Section 4.1), the
exact steady-state Markov engine over chains extracted from the running
protocols (Section 4.3), closed forms (eqns. (3)-(5) and Table 6),
characteristic surfaces (Figures 5-6), crossover lines and protocol
comparison (Section 5.1).
"""

from ..util import lazy_exports

# Names resolve on first access, so ``import repro.sim`` (which needs only
# ``core.parameters``) does not load the chain explorer or the solvers.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "acc": ("acc_table", "analytical_acc"),
    "chains": ("Extraction", "build_chain", "deviation_groups",
               "extract_transitions", "markov_acc"),
    "closed_forms": ("closed_form_acc", "has_closed_form", "ideal_acc",
                     "write_through_trace_probabilities"),
    "comparison": ("ALL_PROTOCOLS", "RegionMap", "best_protocol",
                   "min_acc_region_map", "rank_protocols"),
    "crossover": ("BoundaryComparison", "compare_boundary",
                  "empirical_boundary", "empirical_crossover_p",
                  "paper_line_dragon_vs_berkeley",
                  "paper_line_synapse_vs_wtv", "paper_line_wtv_vs_wt"),
    "parameters": ("Deviation", "WorkloadParams", "feasible_sigma_max",
                   "feasible_xi_max", "parameter_grid"),
    "placement": ("home_center_acc", "placement_advantage"),
    "trace_discovery": ("TraceClass", "discover_traces",
                        "format_trace_table"),
    "surfaces": ("FIGURE_PANELS", "Surface", "acc_surface",
                 "figure_surfaces"),
})
