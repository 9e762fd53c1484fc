"""Differential test: the incidence-array relaxation DP against the
pure-Python DP it replaced.

`relaxation_table` and `h_ff` below are the earlier implementations, kept
verbatim as the slow reference; they live only here. Every comparison is
exact: the fast tables must equal the reference tables entry for entry,
with the same iteration count. Only the reference keeps the per-iteration
proposition tables (`keep_history`), for the monotonicity test.
"""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn import bench
from planlearn.expressiveness import random_unit_task
from planlearn.heuristics import relaxation as fast
from planlearn.heuristics.values import HeuristicValue, from_float
from planlearn.search import ConstantHeuristic, gbfs
from planlearn.seeding import derive_seed
from planlearn.task import StripsAction, StripsTask, ground, parse_pddl, successors

# ── reference implementation ──────────────────────────────────────────────


@dataclasses.dataclass(frozen=True)
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


def h_dp(task: StripsTask, state: frozenset[int], which: str) -> HeuristicValue:
    table = relaxation_table(task, state, which)
    goal = [table.prop_cost[p] for p in task.goal]
    value = sum(goal) if which == "add" else max(goal, default=0.0)
    return from_float(value, table.iterations)


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


# ── comparison ────────────────────────────────────────────────────────────


def assert_same(task, state):
    for which in ("add", "max"):
        got = fast.relaxation_table(task, state, which)
        want = relaxation_table(task, state, which)
        assert got.prop_cost.tolist() == list(want.prop_cost), which
        assert got.action_cost.tolist() == list(want.action_cost), which
        assert got.iterations == want.iterations, which
        for array in (got.prop_cost, got.action_cost):
            assert array.dtype == np.float64 and not array.flags.writeable
        assert fast.h_dp(task, state, which) == h_dp(task, state, which), which
    assert fast.h_ff(task, state) == h_ff(task, state)


def action(name, pre=(), add=(), dele=(), cost=1):
    return StripsAction(name, frozenset(pre), frozenset(add), frozenset(dele), cost)


def strips(n, actions, init, goal):
    return StripsTask(tuple(f"p{i}" for i in range(n)), tuple(actions),
                      frozenset(init), frozenset(goal))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       costs=st.lists(st.integers(0, 3), min_size=8, max_size=8),
       extra=st.sets(st.integers(0, 7)))
def test_random_unit_tasks_match_reference(seed, costs, extra):
    task = random_unit_task(np.random.default_rng(seed))
    assert_same(task, task.init)
    weighted = dataclasses.replace(task, actions=tuple(
        dataclasses.replace(a, cost=c) for a, c in zip(task.actions, costs)))
    state = task.init | {p for p in extra if p < len(task.propositions)}
    assert_same(weighted, state)


# Action costs up to 10**12, where supports are no longer small integers,
# and many zero costs, which make supporter ties.
COSTS = st.one_of(st.just(0), st.just(10**12), st.integers(0, 10**12))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), costs=st.lists(COSTS, min_size=8, max_size=8),
       extra=st.sets(st.integers(0, 7)))
def test_large_and_zero_costs_match_reference(seed, costs, extra):
    task = random_unit_task(np.random.default_rng(seed))
    weighted = dataclasses.replace(task, actions=tuple(
        dataclasses.replace(a, cost=c) for a, c in zip(task.actions, costs)))
    assert_same(weighted, weighted.init)
    assert_same(weighted, task.init | {p for p in extra if p < len(task.propositions)})


def test_action_without_preconditions():
    task = strips(3, [action("free", add={1}), action("step", pre={1}, add={2})], {0}, {2})
    assert_same(task, task.init)
    assert fast.h_dp(task, task.init, "add").value == 2


def test_fact_without_achiever():
    # p2 has no achiever: unreached from init, kept at 0 when held.
    task = strips(3, [action("a", pre={0}, add={1})], {0}, {1, 2})
    assert_same(task, task.init)
    assert fast.h_ff(task, task.init).infinite
    assert_same(task, frozenset({0, 2}))
    assert fast.h_ff(task, frozenset({0, 2})).value == 1


def test_zero_cost_action():
    task = strips(3, [action("free", pre={0}, add={1}, cost=0),
                      action("paid", pre={1}, add={2}, cost=2)], {0}, {2})
    assert_same(task, task.init)
    assert fast.h_dp(task, task.init, "add").value == 2


def test_unreachable_goal():
    task = strips(4, [action("a", pre={0}, add={1}), action("b", pre={3}, add={2})], {0}, {2})
    assert_same(task, task.init)
    assert fast.h_dp(task, task.init, "max").infinite
    assert fast.h_ff(task, task.init).infinite


def test_task_without_actions():
    task = strips(2, [], {0}, {1})
    assert_same(task, task.init)
    table = fast.relaxation_table(task, task.init, "add")
    assert table.action_cost.tolist() == [] and table.iterations == 1
    assert_same(strips(2, [], {0, 1}, {1}), frozenset({0, 1}))


def test_tables_compare_by_identity(gripper_ground):
    # Array fields make field-wise == ambiguous; a table equals only itself.
    task, _ = gripper_ground
    table = fast.relaxation_table(task, task.init, "add")
    again = fast.relaxation_table(task, task.init, "add")
    assert table == table and table != again and hash(table) == hash(table)


def test_state_holding_every_fact(gripper_ground):
    task, _ = gripper_ground
    everything = frozenset(range(len(task.propositions)))
    assert_same(task, everything)
    assert fast.relaxation_table(task, everything, "add").iterations == 1
    assert fast.h_ff(task, everything).value == 0


def test_h_ff_breaks_supporter_ties_on_lowest_action_id():
    # Goal g (p0) has two achievers of equal h_add cost 3:
    #   via_xy needs x and y, which one action gives together: plan length 2;
    #   via_z needs z at the end of a two-action chain: plan length 3.
    g, x, y, w, z = range(5)
    via_xy = action("via-xy", pre={x, y}, add={g})
    via_z = action("via-z", pre={z}, add={g})
    rest = [action("make-xy", add={x, y}), action("make-w", add={w}),
            action("make-z", pre={w}, add={z})]
    first = strips(5, [via_xy, via_z, *rest], (), {g})
    second = strips(5, [via_z, via_xy, *rest], (), {g})
    for task in (first, second):
        assert fast.h_dp(task, task.init, "add").value == 3
        assert_same(task, task.init)
    assert fast.h_ff(first, first.init).value == 2
    assert fast.h_ff(second, second.init).value == 3


def test_incidence_is_bound_to_the_task():
    task = strips(3, [action("b", pre={1, 0}, add={2}), action("a", add={2, 1})], {0}, {2})
    inc = task.incidence
    assert task.incidence is inc
    # Sentinels: proposition slot 3 (held at 0) and action slot 2 (cost inf).
    assert inc.pre.tolist() == [0, 1, 3, 3] and inc.pre_starts.tolist() == [0, 2, 3]
    assert inc.achievers.tolist() == [2, 1, 0, 1, 2]
    assert inc.ach_starts.tolist() == [0, 1, 2, 4]
    assert inc.ach_prop.tolist() == [0, 1, 2, 2, 3]
    assert inc.cost.tolist() == [1.0, 1.0, math.inf]
    assert inc.supporters == ((), (1,), (0, 1))
    twin = strips(3, list(task.actions), {0}, {2})
    assert twin == task and hash(twin) == hash(task)
    assert "incidence" not in vars(twin)


def bounded_bfs(task, limit):
    start = task.encode(task.init)
    seen = {start}
    order, queue = [start], deque([start])
    while queue and len(order) < limit:
        for _, nxt in successors(task, queue.popleft()):
            if nxt not in seen and len(order) < limit:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return [task.decode(s) for s in order]


class RecordingHeuristic(ConstantHeuristic):
    """The constant heuristic, keeping every state it is asked about."""

    def __init__(self):
        super().__init__()
        self.states = []

    def evaluate_batch(self, states):
        self.states.extend(states)
        return super().evaluate_batch(states)


@pytest.mark.parametrize("domain, size", [("gripper", 3), ("blocksworld", 4), ("visitall", 3)])
def test_blind_search_states_match_reference(domain, size):
    # Every state a constant-heuristic (breadth-first) gbfs evaluates, the
    # initial one included, on a small instance seeded as the hff search
    # workload seeds its first copy.
    text = bench.GENERATORS[domain](size, seed=derive_seed(0, f"{domain}-{size}-0"))
    task, _ = ground(parse_pddl(bench.DOMAIN_TEXT[domain], text))
    heuristic = RecordingHeuristic()
    result = gbfs(task, heuristic)
    assert result.status == "solved" and len(heuristic.states) == result.evaluations > 80
    for state in heuristic.states:
        assert_same(task, task.decode(state))


def test_benchmark_search_instances_match_reference():
    # The hff search workload's instances at seed 0: gripper-12, eight
    # blocksworld-7 copies and visitall-6.
    instances = [("gripper", 12, 1), ("blocksworld", 7, 8), ("visitall", 6, 1)]
    checked = 0
    for domain, size, copies in instances:
        for copy in range(copies):
            text = bench.GENERATORS[domain](size, seed=derive_seed(0, f"{domain}-{size}-{copy}"))
            task, _ = ground(parse_pddl(bench.DOMAIN_TEXT[domain], text))
            for state in bounded_bfs(task, 40):
                assert_same(task, state)
                checked += 1
    assert checked == 400
