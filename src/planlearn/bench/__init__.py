"""Instance generators and the training-data pipeline."""

from .domains import (
    DOMAIN_TEXT,
    GENERATORS,
    blocksworld_problem,
    gripper_problem,
    spanner_problem,
    visitall_problem,
)
from .suite import (
    Instance,
    Suite,
    SuiteSpec,
    build_training_set,
    default_suite,
    generate,
    load_suite,
    suite_files,
)

__all__ = [
    "DOMAIN_TEXT", "GENERATORS", "Instance", "Suite", "SuiteSpec",
    "blocksworld_problem", "build_training_set", "default_suite", "generate",
    "gripper_problem", "load_suite", "spanner_problem", "suite_files",
    "visitall_problem",
]
