"""Eager greedy best-first search.

Open list is a binary heap keyed (h, insertion sequence): ties resolve
first-in-first-out, so with a zero heuristic the search degenerates to
breadth-first and returns optimal plans under unit costs. Duplicate states
are detected against everything already evaluated; re-opening is disabled.
One table, the parent of each stored state, serves as the duplicate check
and the node count. Only fresh states are pushed, so a state enters the
open list at most once and needs no closed set.
States are the packed search states of a StripsTask, and so are the
states handed to the heuristic. Every returned plan is validated before the
result is handed back.

The deadline is checked only between expansions, so a search can overrun
timeout_s by one expansion: successor generation for one node plus the
evaluate_batch calls on its fresh successors.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

from ..errors import InvalidPlan
from ..task.model import StripsTask, initial_state, plan_from_parents, successors, validate_plan


@dataclass(frozen=True)
class SearchConfig:
    timeout_s: float = 300.0
    node_cap: int = 10**6       # soft memory cap: states stored, pruned ones too
    eval_batch: int = 64        # max states per evaluate_batch call; changes no estimate
    # tie break is always FIFO

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.eval_batch < 1:
            raise ValueError("eval_batch must be >= 1")


@dataclass
class SearchResult:
    status: str                 # solved | exhausted | timeout | node_cap
    plan: list[int] | None
    expansions: int
    evaluations: int
    generated: int
    plan_cost: int | None
    wall_nanos: int
    peak_open_size: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "plan": self.plan,
            "expansions": self.expansions,
            "evaluations": self.evaluations,
            "generated": self.generated,
            "plan_cost": self.plan_cost,
            "peak_open_size": self.peak_open_size,
        }


def gbfs(task: StripsTask, heuristic, config: SearchConfig | None = None) -> SearchResult:
    config = config or SearchConfig()
    start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + config.timeout_s

    def result(status, plan=None):
        cost = None
        if plan is not None:
            check = validate_plan(task, plan)
            if not check.valid:
                raise InvalidPlan(f"search produced an invalid plan: {check.reason}")
            cost = check.cost
        return SearchResult(status, plan, expansions, evaluations, generated,
                            cost, time.perf_counter_ns() - start_ns, peak_open)

    expansions = evaluations = generated = peak_open = 0
    root = initial_state(task)
    if task.is_goal(root):
        return result("solved", [])

    parents = {root: None}
    open_heap = []
    seq = 0

    def push_evaluated(states):
        nonlocal evaluations, seq, peak_open
        for lo in range(0, len(states), config.eval_batch):
            chunk = states[lo:lo + config.eval_batch]
            values = heuristic.evaluate_batch(chunk)
            evaluations += len(chunk)
            for s, h in zip(chunk, values):
                h = float(h)
                if math.isinf(h):
                    continue  # pruned as a dead end
                heapq.heappush(open_heap, (h, seq, s))
                seq += 1
        peak_open = max(peak_open, len(open_heap))

    push_evaluated([root])
    while open_heap:
        if time.perf_counter() > deadline:
            return result("timeout")
        if len(parents) > config.node_cap:
            return result("node_cap")
        _, _, state = heapq.heappop(open_heap)
        if task.is_goal(state):
            return result("solved", plan_from_parents(parents, state))
        expansions += 1
        fresh = []
        for aid, nxt in successors(task, state):
            generated += 1
            if nxt in parents:
                continue
            parents[nxt] = (state, aid)
            fresh.append(nxt)
        if fresh:
            push_evaluated(fresh)
    return result("exhausted")


def format_plan(task: StripsTask, result: SearchResult) -> str:
    """One action name per line plus a trailing cost comment."""
    if result.status != "solved" or result.plan is None:
        raise ValueError(f"no plan to format: search ended {result.status!r}")
    lines = [task.actions[aid].name for aid in result.plan]
    lines.append(f"; cost = {result.plan_cost} (unit cost)")
    return "\n".join(lines) + "\n"
