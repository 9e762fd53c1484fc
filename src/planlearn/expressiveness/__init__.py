"""Refinement tests, counterexample pairs, and the exact program."""

from .pairs import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    lifted_twin_pair,
    scaling_twin_pair,
)
from .program import relaxation_program
from .report import Verdict, model_gap, run_theory_checks
from .sampling import random_unit_task
from .wl import ColorHistogram, wl_refine

__all__ = [
    "ColorHistogram", "Verdict", "delete_relaxation_gap_task", "grounded_twin_pair",
    "lifted_twin_pair", "model_gap", "random_unit_task", "relaxation_program",
    "run_theory_checks", "scaling_twin_pair", "wl_refine",
]
