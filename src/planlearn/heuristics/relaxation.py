"""Delete-relaxation heuristics by Jacobi sweeps over incidence arrays.

Each task carries its precondition and achiever incidence as flat index
arrays (`StripsTask.incidence`, built once per task). One sweep is an action
update, the sum (h_add) or max (h_max) of the proposition table over each
action's precondition segment with `reduceat`, followed by a proposition
update: each proposition takes the minimum of its old value and of action
value plus action cost over its achiever segment. Actions without
preconditions have value 0; propositions without achievers keep their
value. Neither update reads a partly updated table. Sweeps repeat until
the proposition table stops changing, so the iteration count includes the
final unchanged sweep. Costs are non-negative integers, so every sum is an
exact integer-valued float and the tables do not depend on summation order.

The heuristic is the combination over goal facts. The relaxed-plan
heuristic extracts best supporters from the additive fixpoint by walking
each fact's achievers in ascending action id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..task.model import StripsTask
from .values import HeuristicValue, from_float


@dataclass(frozen=True)
class RelaxationTable:
    """Converged DP tables: per-proposition and per-action costs (math.inf
    for unreachable) and the iteration count at convergence."""

    prop_cost: tuple[float, ...]
    action_cost: tuple[float, ...]
    iterations: int


def relaxation_table(task: StripsTask, state: frozenset[int], which: str) -> RelaxationTable:
    if which not in ("add", "max"):
        raise ValueError(f"which must be 'add' or 'max', got {which!r}")
    combine = np.add if which == "add" else np.maximum
    inc = task.incidence
    h = np.full(len(task.propositions), math.inf)
    h[np.fromiter(state, dtype=np.intp, count=len(state))] = 0.0
    ha = np.zeros(len(task.actions))

    iterations = 0
    while True:
        iterations += 1
        ha[inc.pre_actions] = combine.reduceat(h[inc.pre], inc.pre_starts)
        best = np.minimum.reduceat((ha + inc.cost)[inc.achievers], inc.ach_starts)
        new = h.copy()
        new[inc.ach_props] = np.minimum(h[inc.ach_props], best)
        # Entries are +0.0, positive integer-valued floats or +inf (never NaN
        # or -0.0), so equal bytes means equal tables.
        if new.tobytes() == h.tobytes():
            break
        h = new
    return RelaxationTable(tuple(h.tolist()), tuple(ha.tolist()), iterations)


def _goal_value(task: StripsTask, table: RelaxationTable, which: str) -> float:
    goal = [table.prop_cost[p] for p in task.goal]
    if which == "add":
        return sum(goal)
    return max(goal, default=0.0)


def h_dp(task: StripsTask, state: frozenset[int], which: str) -> HeuristicValue:
    """h_add or h_max of the state, with the DP iteration count."""
    table = relaxation_table(task, state, which)
    return from_float(_goal_value(task, table, which), table.iterations)


def h_max(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    return h_dp(task, state, "max")


def h_add(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    return h_dp(task, state, "add")


def h_ff(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    """Relaxed-plan heuristic: best-supporter extraction over the additive
    fixpoint; value = number of distinct actions in the relaxed plan.
    Supporter ties break on lowest action id for determinism."""
    table = relaxation_table(task, state, "add")
    if any(math.isinf(table.prop_cost[p]) for p in task.goal):
        return from_float(math.inf, table.iterations)
    inc = task.incidence
    support = np.add(table.action_cost, inc.cost).tolist()
    plan: set[int] = set()
    agenda = list(task.goal)
    closed = set(state)
    while agenda:
        p = agenda.pop()
        if p in closed:
            continue
        closed.add(p)
        # min keeps the first minimum, and supporters ascend by action id
        best = min(inc.supporters[p], key=support.__getitem__, default=None)
        if best is None or math.isinf(support[best]):
            raise RuntimeError(f"reachable fact {p} has no achiever")
        plan.add(best)
        agenda.extend(task.actions[best].pre)
    return HeuristicValue(len(plan), table.iterations)
