"""Task formalisms, parsing, grounding and plan validation."""

from .ground import GroundingMap, ground, ground_state_atoms, static_predicates
from .interchange import dump_strips
from .model import (
    Atom,
    FdrAction,
    FdrTask,
    FdrVariable,
    LiftedTask,
    PlanCheck,
    Predicate,
    Schema,
    StripsAction,
    StripsTask,
    as_lifted,
    binary_fdr_view,
    fdr_state_to_strips,
    initial_state,
    strips_state_atoms,
    strips_view,
    successors,
    validate_plan,
)
from .pddl import parse_pddl
from .sas import parse_sas

__all__ = [
    "Atom", "FdrAction", "FdrTask", "FdrVariable", "GroundingMap", "LiftedTask",
    "PlanCheck", "Predicate", "Schema", "StripsAction", "StripsTask",
    "as_lifted", "binary_fdr_view", "dump_strips", "fdr_state_to_strips",
    "ground", "ground_state_atoms", "initial_state", "parse_pddl",
    "parse_sas", "static_predicates", "strips_state_atoms", "strips_view",
    "successors", "validate_plan",
]
