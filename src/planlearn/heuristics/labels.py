"""Training labels from optimal plans: a plan of length g contributes the
states it visits with targets g, g-1, ..., 0, each state as a frozenset of
proposition ids."""

from __future__ import annotations

from ..errors import InvalidPlan
from ..task.model import StripsTask, initial_state, validate_plan


def label_dataset(task: StripsTask, plan) -> list[tuple[frozenset[int], int]]:
    check = validate_plan(task, plan)
    if not check.valid:
        raise InvalidPlan(f"cannot label from an invalid plan: {check.reason}")
    samples = []
    state = initial_state(task)
    g = len(plan)
    for i, aid in enumerate(plan):
        samples.append((task.decode(state), g - i))
        state = task.apply(state, aid)
    samples.append((task.decode(state), 0))
    return samples
