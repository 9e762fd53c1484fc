"""Exact oracles: optimal cost, optimal plans and optimal delete-relaxation.

These are reference computations for labels, baselines and the
expressiveness checks; exactness matters, speed only at fixture scale.
Uniform-cost search and state enumeration run on the task's search states
(packed ints for STRIPS); states passed in and returned are frozensets of
proposition ids for STRIPS and value tuples for FDR.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from ..errors import BudgetExceeded
from ..task.model import StripsTask, initial_state, plan_from_parents, successors
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
    """Optimal delete-relaxation cost.

    Uniform-cost search over monotonically growing sets of achieved facts,
    restricted to facts backward-relevant to the goal. Exact; raises
    BudgetExceeded when more than fact_budget unreached relevant facts exist.
    """
    if state is None:
        state = task.init
    missing_goal = frozenset(task.goal - state)
    if not missing_goal:
        return HeuristicValue(0)

    # Forward relaxed reachability.
    reached = set(state)
    frontier = True
    usable = []
    remaining = list(range(len(task.actions)))
    while frontier:
        frontier = False
        still = []
        for i in remaining:
            a = task.actions[i]
            if a.pre <= reached:
                usable.append(i)
                if not a.add <= reached:
                    reached |= a.add
                    frontier = True
            else:
                still.append(i)
        remaining = still
    if not missing_goal <= reached:
        return HeuristicValue(INFINITY)

    # Backward relevance: goal facts, their achievers' preconditions, and so on.
    relevant: set[int] = set()
    agenda = [p for p in missing_goal]
    while agenda:
        p = agenda.pop()
        if p in relevant or p in state:
            continue
        relevant.add(p)
        for i in usable:
            a = task.actions[i]
            if p in a.add:
                agenda.extend(q for q in a.pre if q not in state and q not in relevant)
    if len(relevant) > fact_budget:
        raise BudgetExceeded(
            f"{len(relevant)} unreached relevant facts exceed budget {fact_budget}")

    rel_actions = [task.actions[i] for i in usable
                   if task.actions[i].add & relevant]
    rel_actions.sort(key=lambda a: a.cost)
    start = frozenset()
    dist: dict[frozenset[int], float] = {start: 0}
    counter = itertools.count()
    heap = [(0, next(counter), start)]
    while heap:
        d, _, achieved = heapq.heappop(heap)
        if d > dist[achieved]:
            continue
        if missing_goal <= achieved:
            return HeuristicValue(d)
        have = state | achieved
        for a in rel_actions:
            if not a.pre <= have:
                continue
            gain = (a.add & relevant) - achieved
            if not gain:
                continue
            nxt = achieved | gain
            nd = d + a.cost
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    return HeuristicValue(INFINITY)


def reachable_states(task, state_cap: int = DEFAULT_STATE_CAP):
    """All states reachable from the initial state (breadth-first order)."""
    start = initial_state(task)
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for _, nxt in successors(task, s):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > state_cap:
                    raise BudgetExceeded(f"state cap {state_cap} exceeded enumerating states")
                order.append(nxt)
                queue.append(nxt)
    return [task.decode(s) for s in order]
