"""Exact reference heuristics and training-label generation."""

from .exact import (
    DEFAULT_FACT_BUDGET,
    DEFAULT_STATE_CAP,
    h_plus,
    h_star,
    optimal_plan,
)
from .labels import label_dataset
from .relaxation import RelaxationTable, h_add, h_dp, h_ff, h_max, relaxation_table
from .values import INFINITY, HeuristicValue

__all__ = [
    "DEFAULT_FACT_BUDGET", "DEFAULT_STATE_CAP", "HeuristicValue", "INFINITY",
    "RelaxationTable", "h_add", "h_dp", "h_ff", "h_max",
    "h_plus", "h_star", "label_dataset", "optimal_plan", "relaxation_table",
]
