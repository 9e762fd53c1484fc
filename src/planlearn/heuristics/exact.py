"""Exact oracles: optimal cost, optimal plans and optimal delete-relaxation.

These are reference computations for labels, baselines and the
expressiveness checks; exactness matters, speed only at fixture scale.
Uniform-cost search runs on the task's packed search states; states passed
in are frozensets of proposition ids. h+ is h* of the relevant delete
relaxation: the same uniform-cost search on a small delete-free task over
the facts that the goal needs and the state lacks.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..errors import BudgetExceeded
from ..task.model import (StripsAction, StripsTask, initial_state, plan_from_parents,
                          successors)
from .relaxation import relaxation_table
from .values import INFINITY, HeuristicValue

DEFAULT_STATE_CAP = 10**6
DEFAULT_FACT_BUDGET = 25


def _dijkstra(task, start, state_cap: int, with_parents: bool):
    costs = [a.cost for a in task.actions]
    dist = {start: 0}
    parents = {start: None} if with_parents else None
    counter = itertools.count()
    heap = [(0, next(counter), start)]
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist[s]:
            continue
        if task.is_goal(s):
            return d, s, parents
        for aid, nxt in successors(task, s):
            nd = d + costs[aid]
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                if with_parents:
                    parents[nxt] = (s, aid)
                if len(dist) > state_cap:
                    raise BudgetExceeded(f"state cap {state_cap} exceeded in exact search")
                heapq.heappush(heap, (nd, next(counter), nxt))
    return None, None, parents


def h_star(task, state=None, state_cap: int = DEFAULT_STATE_CAP) -> HeuristicValue:
    """Optimal cost from the state (default: initial state), by uniform-cost
    search; INFINITY when the goal is unreachable."""
    start = initial_state(task) if state is None else task.encode(state)
    cost, _, _ = _dijkstra(task, start, state_cap, with_parents=False)
    return HeuristicValue(INFINITY if cost is None else cost)


def optimal_plan(task, state=None, state_cap: int = DEFAULT_STATE_CAP):
    """An optimal plan from the state, or None when unsolvable."""
    start = initial_state(task) if state is None else task.encode(state)
    cost, goal_state, parents = _dijkstra(task, start, state_cap, with_parents=True)
    if cost is None:
        return None
    return plan_from_parents(parents, goal_state)


def h_plus(task: StripsTask, state: frozenset[int] | None = None,
           fact_budget: int = DEFAULT_FACT_BUDGET) -> HeuristicValue:
    """Optimal delete-relaxation cost, as h_star of the relevant delete
    relaxation.

    Facts and actions are relaxed-reachable when their h_max cost is finite.
    The relevant facts are the missing goal facts, closed backward under the
    preconditions of their usable achievers. Raises BudgetExceeded when more
    than fact_budget relevant facts exist or the search stores more than
    DEFAULT_STATE_CAP fact sets.
    """
    if state is None:
        state = task.init
    missing_goal = task.goal - state
    if not missing_goal:
        return HeuristicValue(0)

    table = relaxation_table(task, state, "max")
    if not np.isfinite(table.prop_cost[sorted(missing_goal)]).all():
        return HeuristicValue(INFINITY)
    usable = np.isfinite(table.action_cost).tolist()

    # Backward relevance: goal facts, their achievers' preconditions, and so on.
    supporters = task.incidence.supporters
    relevant: set[int] = set()
    agenda = list(missing_goal)
    while agenda:
        p = agenda.pop()
        if p in relevant:
            continue
        relevant.add(p)
        for i in supporters[p]:
            if usable[i]:
                agenda.extend(task.actions[i].pre - state - relevant)
    if len(relevant) > fact_budget:
        raise BudgetExceeded(
            f"{len(relevant)} unreached relevant facts exceed budget {fact_budget}")

    # Every usable achiever of a relevant fact has its unmet preconditions
    # among the relevant facts, so the relaxed task needs no other facts.
    facts = sorted(relevant)
    rename = {p: i for i, p in enumerate(facts)}
    actions = tuple(
        StripsAction(a.name, frozenset(rename[p] for p in a.pre - state),
                     frozenset(rename[p] for p in a.add & relevant), frozenset(), a.cost)
        for i, a in enumerate(task.actions) if usable[i] and a.add & relevant)
    relaxed = StripsTask(tuple(task.propositions[p] for p in facts), actions, frozenset(),
                         frozenset(rename[p] for p in missing_goal))
    return h_star(relaxed, state_cap=DEFAULT_STATE_CAP)
