"""Greedy best-first search with pluggable heuristics."""

from .experiment import ExperimentRow, ExperimentTable, run_experiment
from .gbfs import SearchConfig, SearchResult, format_plan, gbfs
from .heuristics import ConstantHeuristic, ModelHeuristic, OracleHeuristic

__all__ = [
    "ConstantHeuristic", "ExperimentRow", "ExperimentTable", "ModelHeuristic",
    "OracleHeuristic", "SearchConfig", "SearchResult", "format_plan", "gbfs", "run_experiment",
]
