"""Validation of the analytic model against the simulator (Table 7)."""

from .compare import CellResult, ComparisonTable, compare_cell, comparison_table

__all__ = [
    "CellResult",
    "ComparisonTable",
    "compare_cell",
    "comparison_table",
]
