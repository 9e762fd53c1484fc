"""Delete-relaxation heuristics by naive dynamic programming.

The fixpoint alternates an action update (combine over preconditions with
sum or max) and a proposition update (min over achievers plus cost) until
the proposition table stops changing; the heuristic is the combination over
goal facts. The relaxed-plan heuristic extracts best supporters from the
additive fixpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..task.model import StripsTask
from .values import HeuristicValue, from_float


@dataclass(frozen=True)
class RelaxationTable:
    """Converged DP tables: per-proposition and per-action costs (math.inf
    for unreachable), the iteration count at convergence, and optionally the
    per-iteration proposition tables."""

    prop_cost: tuple[float, ...]
    action_cost: tuple[float, ...]
    iterations: int
    history: tuple[tuple[float, ...], ...] = ()


def relaxation_table(task: StripsTask, state: frozenset[int], which: str,
                     keep_history: bool = False) -> RelaxationTable:
    if which not in ("add", "max"):
        raise ValueError(f"which must be 'add' or 'max', got {which!r}")
    combine = sum if which == "add" else max
    n = len(task.propositions)
    h = [0.0 if p in state else math.inf for p in range(n)]
    ha = [math.inf] * len(task.actions)
    achievers: list[list[int]] = [[] for _ in range(n)]
    for i, a in enumerate(task.actions):
        for p in a.add:
            achievers[p].append(i)

    history = [tuple(h)] if keep_history else []
    iterations = 0
    while True:
        iterations += 1
        for i, a in enumerate(task.actions):
            ha[i] = combine([h[p] for p in a.pre]) if a.pre else 0.0
        new = list(h)
        for p in range(n):
            for i in achievers[p]:
                cand = ha[i] + task.actions[i].cost
                if cand < new[p]:
                    new[p] = cand
        if keep_history:
            history.append(tuple(new))
        if new == h:
            break
        h = new
    return RelaxationTable(tuple(h), tuple(ha), iterations, tuple(history))


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
    plan: set[int] = set()
    agenda = [p for p in sorted(task.goal) if p not in state]
    closed: set[int] = set()
    while agenda:
        p = agenda.pop()
        if p in closed:
            continue
        closed.add(p)
        best = None
        best_cost = math.inf
        for i, a in enumerate(task.actions):
            if p in a.add:
                cand = table.action_cost[i] + a.cost
                if cand < best_cost:
                    best, best_cost = i, cand
        if best is None:
            raise RuntimeError(f"reachable fact {p} has no achiever")
        plan.add(best)
        for q in sorted(task.actions[best].pre):
            if q not in state and q not in closed:
                agenda.append(q)
    return HeuristicValue(len(plan), table.iterations)
