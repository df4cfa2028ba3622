"""Workload generators (paper Section 4.2): ideal and the three deviations
over ``M`` shared objects."""

from .base import EventTable, OpTriple, TableWorkload, Workload
from .synthetic import (
    SyntheticWorkload,
    ideal_workload,
    make_event_table,
    multiple_activity_centers_workload,
    read_disturbance_workload,
    write_disturbance_workload,
)

__all__ = [
    "EventTable",
    "OpTriple",
    "TableWorkload",
    "Workload",
    "SyntheticWorkload",
    "ideal_workload",
    "make_event_table",
    "multiple_activity_centers_workload",
    "read_disturbance_workload",
    "write_disturbance_workload",
]
