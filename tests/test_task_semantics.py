import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from planlearn.errors import UnknownActionId
from planlearn.expressiveness import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    random_unit_task,
)
from planlearn.heuristics import h_star
from planlearn.task import (
    StripsAction,
    StripsTask,
    binary_fdr_view,
    fdr_state_to_strips,
    initial_state,
    strips_state_to_fdr,
    strips_view,
    successors,
    validate_plan,
)

import numpy as np

from helpers import reachable_states, reference_fdr_is_goal, reference_fdr_successors


def test_apply_strips_substitution():
    task = StripsTask(("p0", "p1"),
                      (StripsAction("a", frozenset({0}), frozenset({1}), frozenset({0})),),
                      frozenset({0}), frozenset({1}))
    assert task.decode(task.apply(task.encode(frozenset({0})), 0)) == frozenset({1})
    assert task.apply(task.encode(frozenset()), 0) is None  # inapplicable is a value


def test_relaxation_gap_task_semantics():
    task = delete_relaxation_gap_task()
    s1 = task.apply(initial_state(task), 0)
    assert task.decode(s1) == frozenset({1})          # reaching p1 destroys p0
    s2 = task.apply(s1, 1)
    assert task.decode(s2) == frozenset({0, 1}) and task.goal <= task.decode(s2)
    check = validate_plan(task, [0, 1])
    assert check.valid and check.cost == 2
    assert h_star(task).value == 2


def test_apply_fdr_overwrites_single_variable(gripper_fdr):
    move = next(i for i, a in enumerate(gripper_fdr.actions)
                if a.name == "move rooma roomb")
    view = strips_view(gripper_fdr)
    nxt = view.apply(initial_state(view), move)
    assert strips_state_to_fdr(gripper_fdr, view.decode(nxt)) == (1, 0, 0, 0)
    # only the robot variable changes


def fdr_optimal_cost(task):
    """Uniform-cost search on value tuples under the reference FDR
    semantics; None when the goal is unreachable."""
    dist = {task.init: 0}
    heap = [(0, task.init)]
    while heap:
        d, s = heapq.heappop(heap)
        if d > dist[s]:
            continue
        if reference_fdr_is_goal(task, s):
            return d
        for aid, nxt in reference_fdr_successors(task, s):
            nd = d + task.actions[aid].cost
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


def test_validate_empty_plan_when_goal_holds():
    task = StripsTask(("p",), (), frozenset({0}), frozenset({0}))
    check = validate_plan(task, [])
    assert check.valid and check.cost == 0


def test_validate_twin_plan_cost_four():
    p1, _ = grounded_twin_pair()
    names = [a.name for a in p1.actions]
    plan = [names.index(n) for n in ("a1", "a2", "a3", "a5")]
    check = validate_plan(p1, plan)
    assert check.valid and check.cost == 4


def test_validate_inapplicable_step_invalid():
    p1, _ = grounded_twin_pair()
    names = [a.name for a in p1.actions]
    check = validate_plan(p1, [names.index("a3")])  # precondition p1 unmet
    assert not check.valid


def test_validate_unknown_action_id():
    task = StripsTask(("p",), (), frozenset({0}), frozenset({0}))
    with pytest.raises(UnknownActionId):
        validate_plan(task, [5])


def test_strips_view_binary_flip(minimal_sas_text):
    from planlearn.task import parse_sas
    view = strips_view(parse_sas(minimal_sas_text))
    assert len(view.propositions) == 2
    a = view.actions[0]
    assert (len(a.pre), len(a.add), len(a.dele)) == (1, 1, 1)


def test_strips_view_proposition_count(gripper_fdr):
    view = strips_view(gripper_fdr)
    assert len(view.propositions) == sum(len(v.values) for v in gripper_fdr.variables)


def test_strips_view_preserves_optimal_cost(gripper_fdr, minimal_sas_text):
    from planlearn.task import parse_sas
    for task in (gripper_fdr, parse_sas(minimal_sas_text)):
        assert fdr_optimal_cost(task) == h_star(strips_view(task)).value


def test_strips_view_state_space_isomorphic(gripper_fdr):
    """Effects on variables absent from the precondition still clear every
    other value: reachable state spaces must match one-to-one."""
    view = strips_view(gripper_fdr)
    fdr_states = reachable_states(gripper_fdr)
    mapped = [fdr_state_to_strips(gripper_fdr, s) for s in fdr_states]
    assert mapped == reachable_states(view)
    # successor relation matches under the mapping, action by action
    for s, state in zip(fdr_states, mapped):
        assert strips_state_to_fdr(gripper_fdr, state) == s
        succ_fdr = [(aid, fdr_state_to_strips(gripper_fdr, t))
                    for aid, t in reference_fdr_successors(gripper_fdr, s)]
        succ_view = [(aid, view.decode(t)) for aid, t in successors(view, view.encode(state))]
        assert succ_fdr == succ_view
        assert reference_fdr_is_goal(gripper_fdr, s) == view.is_goal(view.encode(state))


def test_strips_state_to_fdr_rejects_non_view_states(gripper_fdr):
    state = fdr_state_to_strips(gripper_fdr, gripper_fdr.init)
    robot = sorted(state)[0]
    for bad, message in ((state - {robot}, "every variable"),
                         (state | {robot + 1}, "twice"),
                         (state | {len(strips_view(gripper_fdr).propositions)}, "outside"),
                         (state | {-1}, "outside")):
        with pytest.raises(ValueError, match=message):
            strips_state_to_fdr(gripper_fdr, bad)


def test_binary_fdr_view_round_trip():
    task, _ = grounded_twin_pair()
    fdr = binary_fdr_view(task)
    assert fdr_optimal_cost(fdr) == h_star(task).value == 4


def _lifted_reachable_fluents(task):
    """Reference semantics: instantiate schemas at apply time, no grounding."""
    from planlearn.task.ground import _bind, static_predicates

    statics = static_predicates(task)
    start = frozenset(task.init)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for schema in task.schemas:
            for combo in itertools.product(task.objects, repeat=len(schema.params)):
                binding = dict(zip(schema.params, combo))
                pre = {_bind(a, binding) for a in schema.pre}
                if not pre <= state:
                    continue
                add = {_bind(a, binding) for a in schema.add}
                dele = {_bind(a, binding) for a in schema.dele}
                if add & dele:
                    continue
                nxt = frozenset((state - dele) | add)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return {frozenset(a for a in s if a.predicate not in statics) for s in seen}


def test_ground_then_apply_commutes_with_lifted_semantics(gripper_lifted, gripper_ground):
    strips, gmap = gripper_ground
    ground_states = {
        frozenset(gmap.prop_atoms[p] for p in s) for s in reachable_states(strips)}
    assert ground_states == _lifted_reachable_fluents(gripper_lifted)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_task_successor_invariants(seed):
    task = random_unit_task(np.random.default_rng(seed))
    all_props = frozenset(range(len(task.propositions)))
    for aid, packed in successors(task, initial_state(task)):
        nxt = task.decode(packed)
        a = task.actions[aid]
        assert a.pre <= task.init
        assert nxt <= all_props
        assert a.add <= nxt
        assert not (a.dele & nxt)
