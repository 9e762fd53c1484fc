"""Differential test: packed bit-vector STRIPS states against the frozenset
states they replaced.

`strips_apply`, `reference_successors`, `reference_gbfs` and
`reference_dijkstra` below are the earlier implementations over frozenset
states, kept verbatim (apart from the bound apply) as the slow reference;
they live only here. Every comparison is exact: the packed successors,
decoded, must equal the reference pairs in order, and searches must give the
same status, counters, plans and costs.

Finite-domain tasks are searched through their STRIPS view. Their entries
compare the view with the earlier FDR semantics on value tuples (in
helpers.py), states mapped by `fdr_state_to_strips`: the same successors in
the same order, and the same searches.
"""

import heapq
import itertools
import math
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn.errors import BudgetExceeded, InvalidPlan
from planlearn.expressiveness import grounded_twin_pair, lifted_twin_pair, random_unit_task
from planlearn.heuristics import INFINITY, h_ff, h_star, optimal_plan
from planlearn.search import ConstantHeuristic, OracleHeuristic, SearchConfig, SearchResult, gbfs
from planlearn.task import (
    StripsTask,
    binary_fdr_view,
    fdr_state_to_strips,
    ground,
    initial_state,
    strips_view,
    successors,
    validate_plan,
)
from planlearn.task.model import plan_from_parents

from helpers import (
    bench_task,
    reachable_states,
    reference_fdr_apply,
    reference_fdr_is_goal,
    reference_fdr_successors,
)

# ── reference implementation ──────────────────────────────────────────────


def strips_apply(task, state, action_id):
    """Successor state, or None when the action is inapplicable."""
    a = task.actions[action_id]
    if not a.pre <= state:
        return None
    return (state - a.dele) | a.add


def reference_apply(task):
    if isinstance(task, StripsTask):
        return lambda state, action_id: strips_apply(task, state, action_id)
    return lambda state, action_id: reference_fdr_apply(task, state, action_id)


def reference_is_goal(task, state):
    if isinstance(task, StripsTask):
        return task.goal <= state
    return reference_fdr_is_goal(task, state)


def reference_successors(task, state):
    """All (action_id, successor) pairs applicable in state, in action order."""
    apply = reference_apply(task)
    out = []
    for i in range(len(task.actions)):
        nxt = apply(state, i)
        if nxt is not None:
            out.append((i, nxt))
    return out


def reference_gbfs(task, heuristic, config=None):
    config = config or SearchConfig()
    start_ns = time.perf_counter_ns()
    deadline = time.perf_counter() + config.timeout_s

    def result(status, plan=None):
        cost = None
        if plan is not None:
            check = validate_plan(view, plan)
            if not check.valid:
                raise InvalidPlan(f"search produced an invalid plan: {check.reason}")
            cost = check.cost
        return SearchResult(status, plan, expansions, evaluations, generated,
                            cost, time.perf_counter_ns() - start_ns, peak_open)

    expansions = evaluations = generated = peak_open = 0
    root = task.init
    # An FDR plan is validated on the STRIPS view, as gbfs validates it.
    view = task if isinstance(task, StripsTask) else strips_view(task)
    if reference_is_goal(task, root):
        return result("solved", [])

    seen = {root}
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
    closed = set()
    while open_heap:
        if time.perf_counter() > deadline:
            return result("timeout")
        if len(seen) > config.node_cap:
            return result("node_cap")
        _, _, state = heapq.heappop(open_heap)
        if state in closed:
            continue
        if reference_is_goal(task, state):
            return result("solved", plan_from_parents(parents, state))
        closed.add(state)
        expansions += 1
        fresh = []
        for aid, nxt in reference_successors(task, state):
            generated += 1
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = (state, aid)
            fresh.append(nxt)
        push_evaluated(fresh)
    return result("exhausted")


def reference_dijkstra(task, start, state_cap, with_parents):
    dist = {start: 0}
    parents = {start: None} if with_parents else None
    counter = itertools.count()
    heap = [(0, next(counter), start)]
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist[s]:
            continue
        if reference_is_goal(task, s):
            return d, s, parents
        for aid, nxt in reference_successors(task, s):
            nd = d + task.actions[aid].cost
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                if with_parents:
                    parents[nxt] = (s, aid)
                if len(dist) > state_cap:
                    raise BudgetExceeded(f"state cap {state_cap} exceeded in exact search")
                heapq.heappush(heap, (nd, next(counter), nxt))
    return None, None, parents


class ReferenceHff:
    """h_ff evaluated on frozenset states, as the oracle adapter did; `decode`
    maps a reference state to its frozenset."""

    def __init__(self, task, decode=lambda s: s):
        self.task, self.decode = task, decode

    def evaluate_batch(self, states):
        return [float(h_ff(self.task, self.decode(s))) for s in states]


def reference_reachable(task, cap=None):
    seen = {task.init}
    order, queue = [task.init], deque([task.init])
    while queue:
        for _, nxt in reference_successors(task, queue.popleft()):
            if nxt not in seen and (cap is None or len(order) < cap):
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


# ── fixtures ──────────────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def fixture_tasks(gripper_ground, gripper_fdr):
    twin1, twin2 = grounded_twin_pair()
    unsolvable, _ = ground(lifted_twin_pair()[1], prune_statics=False)
    return {"gripper": gripper_ground[0], "twin1": twin1, "twin2": twin2,
            "twin2-unsolvable": unsolvable, "fdr-strips-view": strips_view(gripper_fdr)}


@pytest.fixture(scope="module")
def fdr_tasks(gripper_fdr):
    """Per name, an FDR task, the STRIPS task that search runs on in its place
    and the map from its value tuples to that task's states: the SAS fixture
    and its view, and the binary view of twin1 and twin1 itself, whose bit p
    is variable p."""
    twin1, _ = grounded_twin_pair()
    return {"fdr": (gripper_fdr, strips_view(gripper_fdr),
                    lambda s: fdr_state_to_strips(gripper_fdr, s)),
            "twin1-binary-fdr": (binary_fdr_view(twin1), twin1,
                                 lambda s: frozenset(p for p, d in enumerate(s) if d))}


def assert_same_successors(task, state):
    packed = task.encode(state)
    assert task.decode(packed) == state
    got = [(aid, task.decode(nxt)) for aid, nxt in successors(task, packed)]
    assert got == reference_successors(task, state)
    for aid in range(len(task.actions)):
        nxt = task.apply(packed, aid)
        expected = reference_apply(task)(state, aid)
        assert (None if nxt is None else task.decode(nxt)) == expected
    assert task.is_goal(packed) == reference_is_goal(task, state)


def assert_same_fdr_successors(fdr, task, to_strips, state):
    """`task`'s packed successors of the STRIPS state of an FDR state are
    the reference FDR successors, mapped, in the same order."""
    packed = task.encode(to_strips(state))
    got = [(aid, task.decode(nxt)) for aid, nxt in successors(task, packed)]
    assert got == [(aid, to_strips(nxt)) for aid, nxt in reference_fdr_successors(fdr, state)]
    for aid in range(len(fdr.actions)):
        nxt = task.apply(packed, aid)
        expected = reference_fdr_apply(fdr, state, aid)
        assert (None if nxt is None else task.decode(nxt)) == \
            (None if expected is None else to_strips(expected))
    assert task.is_goal(packed) == reference_fdr_is_goal(fdr, state)


# ── successors ────────────────────────────────────────────────────────────


def test_successors_match_on_every_reachable_state(fixture_tasks, fdr_tasks):
    for name, task in fixture_tasks.items():
        states = reference_reachable(task)
        for state in states:
            assert_same_successors(task, state)
        assert reachable_states(task) == states, name
    for name, (fdr, task, to_strips) in fdr_tasks.items():
        states = reference_reachable(fdr)
        for state in states:
            assert_same_fdr_successors(fdr, task, to_strips, state)
        assert reachable_states(task) == [to_strips(s) for s in states], name


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000))
def test_random_task_successors_match(seed):
    task = random_unit_task(np.random.default_rng(seed))
    assert initial_state(task) == task.encode(task.init)
    for state in reference_reachable(task, cap=64):
        assert_same_successors(task, state)
        packed = task.encode(state)
        assert task.encode(task.decode(packed)) == packed
        assert packed == sum(1 << p for p in state)


def test_masks_are_bound_to_the_task():
    task, _ = grounded_twin_pair()
    masks = task.masks
    assert task.masks is masks
    assert [aid for aid, *_ in masks.actions] == list(range(len(task.actions)))
    assert masks.goal == task.encode(task.goal)
    twin = StripsTask(task.propositions, task.actions, task.init, task.goal, task.name)
    assert twin == task and hash(twin) == hash(task)
    assert "masks" not in vars(twin)


def test_encode_decode_edges():
    task = StripsTask(tuple(f"p{i}" for i in range(70)), (), frozenset(), frozenset())
    for state in (frozenset(), frozenset({0}), frozenset({69}), frozenset({0, 31, 32, 63, 64})):
        assert task.decode(task.encode(state)) == state
    assert task.encode(frozenset({69})) == 1 << 69


# ── searches ──────────────────────────────────────────────────────────────


def search_tasks(fixture_tasks):
    tasks = dict(fixture_tasks)
    for domain, size in (("gripper", 4), ("blocksworld", 5), ("visitall", 3), ("spanner", 3)):
        tasks[f"{domain}-{size}"] = bench_task(domain, size)
    return tasks


def assert_same_search(got, expected):
    for field in ("status", "plan", "expansions", "evaluations", "generated", "plan_cost",
                  "peak_open_size"):
        assert getattr(got, field) == getattr(expected, field), field


class PruningHeuristic:
    """inf on every non-initial state whose fact ids sum to a multiple of 3,
    that sum mod 4 elsewhere. `decode` maps a search state to its facts, so
    packed and frozenset searches see the same values. Pruned states are
    stored by gbfs but never pushed."""

    def __init__(self, task, decode):
        self.task, self.decode, self.pruned = task, decode, 0

    def evaluate_batch(self, states):
        values = []
        for state in states:
            facts = self.decode(state)
            total = sum(facts)
            if total % 3 == 0 and facts != self.task.init:
                self.pruned += 1
                values.append(math.inf)
            else:
                values.append(float(total % 4))
        return values


def test_gbfs_matches_reference(fixture_tasks, fdr_tasks):
    """Each FDR task's reference search runs on value tuples, and its
    heuristics read them mapped to the states of the task gbfs runs on."""
    statuses, pruned = set(), 0
    configs = (None, SearchConfig(eval_batch=3), *(SearchConfig(node_cap=c) for c in (2, 5, 17)))
    runs = [(task, task, lambda s: s) for task in search_tasks(fixture_tasks).values()]
    runs += [(fdr, task, to_strips) for fdr, task, to_strips in fdr_tasks.values()]
    for reference_task, task, to_strips in runs:
        for cfg in configs:
            pruning = PruningHeuristic(task, task.decode)
            pairs = [(ConstantHeuristic(0.0), ConstantHeuristic(0.0)),
                     (pruning, PruningHeuristic(task, to_strips)),
                     (OracleHeuristic(task, "hff"), ReferenceHff(task, to_strips))]
            for heuristic, reference in pairs:
                got = gbfs(task, heuristic, cfg)
                assert_same_search(got, reference_gbfs(reference_task, reference, cfg))
                statuses.add(got.status)
            pruned += pruning.pruned
    assert {"solved", "exhausted", "node_cap"} <= statuses
    assert pruned > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_random_task_gbfs_matches(seed):
    task = random_unit_task(np.random.default_rng(seed))
    assert_same_search(gbfs(task, ConstantHeuristic(0.0)),
                       reference_gbfs(task, ConstantHeuristic(0.0)))
    assert_same_search(gbfs(task, OracleHeuristic(task, "hff")),
                       reference_gbfs(task, ReferenceHff(task)))


def test_exact_oracles_match_reference(fixture_tasks, fdr_tasks):
    runs = [(name, task, task, lambda s: s) for name, task in search_tasks(fixture_tasks).items()]
    runs += [(name, fdr, task, to_strips) for name, (fdr, task, to_strips) in fdr_tasks.items()]
    for name, reference_task, task, to_strips in runs:
        cap = None if name in fixture_tasks or name in fdr_tasks else 25
        for state in reference_reachable(reference_task, cap=cap):
            cost, goal_state, parents = reference_dijkstra(reference_task, state, 10**6, True)
            value = h_star(task, to_strips(state)).value
            assert value == (INFINITY if cost is None else cost), name
            plan = None if cost is None else plan_from_parents(parents, goal_state)
            assert optimal_plan(task, to_strips(state)) == plan, name
        cost, _, _ = reference_dijkstra(reference_task, reference_task.init, 10**6, False)
        assert h_star(task).value == (INFINITY if cost is None else cost)
