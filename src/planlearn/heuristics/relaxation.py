"""Delete-relaxation heuristics by Jacobi sweeps over padded incidence arrays.

Each task carries its precondition and achiever incidence as flat index
arrays (`StripsTask.incidence`, built once per task) with one non-empty
segment per action and per proposition. Two sentinel slots make that
possible: proposition slot n, held at cost 0, is the one precondition of
every action without preconditions, and action slot A, whose cost is inf,
is the one achiever of every proposition without achievers. The tables
carry both slots, so no sweep scatters into a subset of them.

One sweep is an action update, the sum (h_add) or max (h_max) of the
proposition table over each action's precondition segment with `reduceat`,
followed by a proposition update: each proposition takes the minimum of its
old value and of action value plus action cost over its achiever segment
(a proposition without achievers sees inf and keeps its value). Neither
update reads a partly updated table. Sweeps repeat until the proposition
table stops changing, so the iteration count includes the final unchanged
sweep. Costs are non-negative integers, so every sum is an exact
integer-valued float and the tables do not depend on summation order.
`relaxation_table` returns the tables without the sentinel slots, as
read-only float64 arrays.

The heuristic is the combination over goal facts. The relaxed-plan
heuristic picks every fact's best supporter at once: the lowest action id
among the fact's achievers whose support (action value plus cost) equals
the least support in its segment, found by comparing for equality rather
than by packing support and id into one number, so no cost is too large
for it. It then walks from the goal through those supporters'
preconditions, one list lookup per fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..task.model import StripsTask
from .values import HeuristicValue, from_float


@dataclass(frozen=True, eq=False)
class RelaxationTable:
    """Converged DP tables as read-only float64 arrays, `prop_cost` per
    proposition and `action_cost` per action (inf for unreachable), and the
    iteration count at convergence. Tables compare by identity."""

    prop_cost: np.ndarray
    action_cost: np.ndarray
    iterations: int


def relaxation_table(task: StripsTask, state: frozenset[int], which: str) -> RelaxationTable:
    if which not in ("add", "max"):
        raise ValueError(f"which must be 'add' or 'max', got {which!r}")
    combine = np.add if which == "add" else np.maximum
    inc = task.incidence
    n = len(task.propositions)
    h = np.full(n + 1, math.inf)
    h[np.fromiter(state, dtype=np.intp, count=len(state))] = 0.0
    h[n] = 0.0

    iterations = 0
    while True:
        iterations += 1
        ha = combine.reduceat(h[inc.pre], inc.pre_starts)
        new = np.minimum(h, np.minimum.reduceat((ha + inc.cost)[inc.achievers],
                                                inc.ach_starts))
        # Entries are +0.0, positive integer-valued floats or +inf (never NaN
        # or -0.0), so equal bytes means equal tables.
        if new.tobytes() == h.tobytes():
            break
        h = new
    prop_cost, action_cost = h[:n], ha[:-1]
    prop_cost.flags.writeable = action_cost.flags.writeable = False
    return RelaxationTable(prop_cost, action_cost, iterations)


def _goal_costs(task: StripsTask, table: RelaxationTable) -> np.ndarray:
    return table.prop_cost[np.fromiter(task.goal, dtype=np.intp, count=len(task.goal))]


def h_dp(task: StripsTask, state: frozenset[int], which: str) -> HeuristicValue:
    """h_add or h_max of the state, with the DP iteration count."""
    table = relaxation_table(task, state, which)
    goal = _goal_costs(task, table)
    value = goal.sum() if which == "add" else goal.max(initial=0.0)
    return from_float(value, table.iterations)


def h_max(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    return h_dp(task, state, "max")


def h_add(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    return h_dp(task, state, "add")


def h_ff(task: StripsTask, state: frozenset[int]) -> HeuristicValue:
    """Relaxed-plan heuristic: best-supporter extraction over the additive
    fixpoint; value = number of distinct actions in the relaxed plan.
    A fact's best supporter is the lowest action id among its achievers of
    least support (action cost plus its h_add table entry)."""
    table = relaxation_table(task, state, "add")
    if not np.isfinite(_goal_costs(task, table)).all():
        return from_float(math.inf, table.iterations)
    inc = task.incidence
    sentinel = len(task.actions)
    support = np.append(table.action_cost, 0.0) + inc.cost
    offered = support[inc.achievers]
    least = np.minimum.reduceat(offered, inc.ach_starts)
    chosen = np.minimum.reduceat(np.where(offered == least[inc.ach_prop], inc.achievers,
                                          sentinel), inc.ach_starts).tolist()
    actions = task.actions
    plan: set[int] = set()
    agenda = list(task.goal)
    closed = set(state)
    while agenda:
        p = agenda.pop()
        if p in closed:
            continue
        closed.add(p)
        best = chosen[p]
        if best == sentinel:
            raise RuntimeError(f"reachable fact {p} has no achiever")
        plan.add(best)
        agenda.extend(actions[best].pre)
    return HeuristicValue(len(plan), table.iterations)
