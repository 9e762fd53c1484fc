import importlib
from collections import deque
from functools import partial

import pytest

from planlearn.errors import InvalidPlan, NonFiniteEstimate
from planlearn.expressiveness import grounded_twin_pair, lifted_twin_pair
from planlearn.search import (
    ConstantHeuristic,
    OracleHeuristic,
    SearchConfig,
    format_plan,
    gbfs,
    run_experiment,
)
from planlearn.task import (
    StripsAction,
    StripsTask,
    fdr_state_to_strips,
    ground,
    initial_state,
    strips_view,
    successors,
    validate_plan,
)

from helpers import blind, reachable_states


class FunctionHeuristic:
    """A heuristic from a function of the plain state (a frozenset of
    proposition ids), decoded from the task's search state."""

    def __init__(self, task, fn):
        self.task = task
        self.fn = fn

    def evaluate_batch(self, states):
        return [float(self.fn(self.task.decode(s))) for s in states]


def test_goal_in_initial_state():
    task = StripsTask(("p",), (), frozenset({0}), frozenset({0}))
    r = gbfs(task, ConstantHeuristic(0))
    assert r.status == "solved" and r.plan == [] and r.expansions == 0
    assert r.plan_cost == 0


def test_gripper_with_exact_heuristic(gripper_ground):
    task, _ = gripper_ground
    r = gbfs(task, OracleHeuristic(task, "hstar"))
    assert r.status == "solved" and r.plan_cost == 3
    assert validate_plan(task, r.plan).valid


def test_unsolvable_task_exhausts():
    _, t2 = lifted_twin_pair()
    g2, _ = ground(t2, prune_statics=False)
    r = gbfs(g2, ConstantHeuristic(0))
    assert r.status == "exhausted" and r.plan is None


def test_blind_gripper_optimal(gripper_ground):
    task, _ = gripper_ground
    r = blind(task)
    assert r.status == "solved" and r.plan_cost == 3


def test_blind_twin_optimal():
    p1, p2 = grounded_twin_pair()
    assert blind(p1).plan_cost == 4
    assert blind(p2).plan_cost == 3


def test_blind_expansions_match_reference_bfs(gripper_ground):
    """FIFO tie-breaking degrades to breadth-first: expansion count must
    equal an independently coded BFS (goal test on pop)."""
    task, _ = gripper_ground
    queue = deque([initial_state(task)])
    seen = {initial_state(task)}
    expansions = 0
    while queue:
        state = queue.popleft()
        if task.is_goal(state):
            break
        expansions += 1
        for _, nxt in successors(task, state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    assert blind(task).expansions == expansions


def test_evaluation_counter_exact(gripper_ground):
    task, _ = gripper_ground
    calls = []

    class Counting:
        def evaluate_batch(self, states):
            calls.append(len(states))
            return [0.0] * len(states)

    r = gbfs(task, Counting())
    assert r.evaluations == sum(calls)
    assert r.expansions <= r.generated
    assert 0 < r.peak_open_size <= r.evaluations


def test_infinite_heuristic_prunes():
    task = StripsTask(
        ("a", "b", "g"),
        (StripsAction("mk-a", frozenset(), frozenset({0}), frozenset()),
         StripsAction("mk-g-via-a", frozenset({0}), frozenset({2}), frozenset()),
         StripsAction("mk-b", frozenset(), frozenset({1}), frozenset())),
        frozenset(), frozenset({2}))

    def h(state):
        return float("inf") if 1 in state else 0.0

    r = gbfs(task, FunctionHeuristic(task, h))
    assert r.status == "solved"
    assert 2 not in r.plan  # states reached via mk-b were pruned as dead ends


def test_timeout_status():
    p1, _ = grounded_twin_pair()
    r = gbfs(p1, ConstantHeuristic(0), SearchConfig(timeout_s=1e-9))
    assert r.status == "timeout"


def test_node_cap_status(gripper_ground):
    task, _ = gripper_ground
    r = gbfs(task, OracleHeuristic(task, "hadd"), SearchConfig(node_cap=2))
    assert r.status in ("node_cap", "solved")
    r2 = blind(task, SearchConfig(node_cap=2))
    assert r2.status == "node_cap"


def test_eval_batch_chunking(gripper_ground):
    task, _ = gripper_ground
    sizes = []

    class Chunky:
        def evaluate_batch(self, states):
            sizes.append(len(states))
            return [0.0] * len(states)

    gbfs(task, Chunky(), SearchConfig(eval_batch=2))
    assert max(sizes) <= 2


@pytest.mark.parametrize("kind, seed", [("slg", 2), ("flg", 4), ("llg", 4)])
def test_model_search_does_not_depend_on_eval_batch(kind, seed):
    """A trained model gives the same estimates and the same search, to the
    plan and every counter, whether its states are evaluated one per call or
    many. These 2-epoch models on the 1:2/3 gripper suite (the seeds the cli
    model tests train with) used to change plans with the batch size."""
    from planlearn.bench import SuiteSpec, build_training_set, generate
    from planlearn.nn import TrainConfig, train
    from planlearn.search import ModelHeuristic

    suite = generate(SuiteSpec("gripper", (1, 2), (), (3,), seed=0))
    model, _ = train(build_training_set(suite.split("train"), kind, encoder_seed=seed),
                     TrainConfig(seed=seed, max_epochs=2))
    lifted = suite.split("test")[0].task
    task, gmap = ground(lifted)
    heuristic = ModelHeuristic(model, task, lifted=lifted, gmap=gmap)

    states = [initial_state(task)]
    for state in states:
        states.extend(nxt for _, nxt in successors(task, state) if nxt not in states)
        if len(states) >= 64:
            break
    assert heuristic.evaluate_batch(states) == [heuristic.evaluate_batch([s])[0]
                                                for s in states]
    results = [gbfs(task, heuristic, SearchConfig(eval_batch=n)).to_json_dict()
               for n in (1, 7, 64)]
    assert results[0]["status"] == "solved"
    assert results[1] == results[0] and results[2] == results[0]


def test_model_heuristic_paths_solve(gripper_ground, gripper_lifted, gripper_fdr):
    """Untrained models still yield total heuristics; every encoding path
    must drive the search to a valid plan. flg searches the STRIPS task
    both for PDDL input and for the SAS fixture's view."""
    from planlearn.graphs import IndexEncoder, flg_kind, llg_kind, slg_kind
    from planlearn.nn import init_model
    from planlearn.search import ModelHeuristic

    strips, gmap = gripper_ground
    slg_model = init_model(slg_kind(), layer_count=2, hidden_dim=8, seed=0)
    r = gbfs(strips, ModelHeuristic(slg_model, strips))
    assert r.status == "solved" and validate_plan(strips, r.plan).valid

    flg_model = init_model(flg_kind(), layer_count=2, hidden_dim=8, seed=0)
    view = strips_view(gripper_fdr)
    for task, fdr in ((strips, None), (view, gripper_fdr)):
        r = gbfs(task, ModelHeuristic(flg_model, task, fdr=fdr))
        assert r.status == "solved" and validate_plan(task, r.plan).valid

    llg_model = init_model(llg_kind(4), layer_count=2, hidden_dim=8, seed=0)
    heuristic = ModelHeuristic(llg_model, strips, lifted=gripper_lifted, gmap=gmap,
                               encoder=IndexEncoder(4, seed=0))
    r = gbfs(strips, heuristic)
    assert r.status == "solved" and validate_plan(strips, r.plan).valid


def test_model_heuristic_rewrite_equals_fresh_graph(gripper_ground, gripper_fdr):
    """The per-state feature rewrite of the slg/flg template gives the same
    estimate as the reference full build of that state's graph; flg reads
    the SAS fixture's value tuples while search runs on its view."""
    from helpers import reference_flg, reference_slg
    from planlearn.graphs import flg_kind, slg_kind
    from planlearn.nn import forward, init_model
    from planlearn.search import ModelHeuristic

    strips, _ = gripper_ground
    view = strips_view(gripper_fdr)
    slg_states = [(s, s) for s in reachable_states(strips)]
    flg_states = [(s, fdr_state_to_strips(gripper_fdr, s)) for s in reachable_states(gripper_fdr)]
    for task, fdr, kind, build, states in (
            (strips, None, slg_kind(), partial(reference_slg, strips), slg_states),
            (view, gripper_fdr, flg_kind(), partial(reference_flg, gripper_fdr), flg_states)):
        # seed 1 gives positive outputs on both tasks, so the clamp at zero
        # cannot hide a wrong feature row
        model = init_model(kind, layer_count=2, hidden_dim=8, seed=1)
        heuristic = ModelHeuristic(model, task, fdr=fdr)
        for s, state in states:
            fresh = forward(model, build(s))
            assert fresh > 0
            assert heuristic.evaluate_batch([task.encode(state)]) == [max(0.0, fresh)]


def test_flg_estimates_on_strips_states_equal_fdr_graphs(gripper_ground, gripper_fdr):
    """On every reachable state of the PDDL fixture (read through its binary
    view) and of the SAS fixture (searched through its STRIPS view), the
    flg graph of the STRIPS state gives, bit for bit, the forward of the
    finite-domain graph of the value tuple, and the model heuristic gives
    that value clamped at zero."""
    from helpers import build_flg
    from planlearn.graphs import flg_kind, state_graphs
    from planlearn.nn import forward, init_model
    from planlearn.search import ModelHeuristic
    from planlearn.task import binary_fdr_view

    strips, _ = gripper_ground
    binary = binary_fdr_view(strips)
    view = strips_view(gripper_fdr)
    cases = (
        (strips, None, binary, [(s, frozenset(p for p, d in enumerate(s) if d))
                                for s in reachable_states(binary)]),
        (view, gripper_fdr, gripper_fdr, [(s, fdr_state_to_strips(gripper_fdr, s))
                                          for s in reachable_states(gripper_fdr)]),
    )
    for seed in (0, 1):
        model = init_model(flg_kind(), layer_count=2, hidden_dim=8, seed=seed)
        for task, fdr, source, states in cases:
            graph_of = state_graphs("flg", task, fdr=fdr)
            heuristic = ModelHeuristic(model, task, fdr=fdr)
            assert len(states) > 1
            for values, state in states:
                want = forward(model, build_flg(source, values))
                assert forward(model, graph_of(state)) == want
                assert heuristic.evaluate_batch([task.encode(state)]) == [max(0.0, want)]


def test_format_plan(gripper_ground):
    task, _ = gripper_ground
    r = blind(task)
    text = format_plan(task, r)
    lines = text.strip().splitlines()
    assert len(lines) == r.plan_cost + 1
    assert lines[-1] == f"; cost = {r.plan_cost} (unit cost)"


def test_format_plan_rejects_unsolved():
    p1, _ = grounded_twin_pair()
    r = gbfs(p1, ConstantHeuristic(0), SearchConfig(timeout_s=1e-9))
    with pytest.raises(ValueError, match="timeout"):
        format_plan(p1, r)


def test_invalid_plan_raises(gripper_ground, monkeypatch):
    """The plan check is a raised exception, so it survives `python -O`."""
    from planlearn.task.model import PlanCheck

    gbfs_module = importlib.import_module("planlearn.search.gbfs")   # the package exports the function
    task, _ = gripper_ground
    monkeypatch.setattr(gbfs_module, "validate_plan",
                        lambda task, plan: PlanCheck(False, 0, "patched"))
    with pytest.raises(InvalidPlan, match="patched"):
        blind(task)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_model_heuristic_rejects_non_finite_output(gripper_ground, bad):
    from planlearn.graphs import slg_kind
    from planlearn.nn import init_model
    from planlearn.search import ModelHeuristic

    task, _ = gripper_ground
    model = init_model(slg_kind(), layer_count=2, hidden_dim=8, seed=0)
    model.params["head.b2"][0] = bad
    with pytest.raises(NonFiniteEstimate):
        ModelHeuristic(model, task).evaluate_batch([initial_state(task)])
    with pytest.raises(NonFiniteEstimate):
        gbfs(task, ModelHeuristic(model, task))


def test_experiment_coverage_and_determinism(gripper_ground):
    task, _ = gripper_ground
    p1, p2 = grounded_twin_pair()
    tasks = [("g1", task), ("t1", p1), ("t2", p2)]
    factories = [("blind", lambda t: ConstantHeuristic(0)),
                 ("hff", lambda t: OracleHeuristic(t, "hff"))]
    a = run_experiment(tasks, factories)
    b = run_experiment(tasks, factories)
    assert a.to_csv() == b.to_csv()
    assert a.coverage() == {"blind": (3, 3), "hff": (3, 3)}
    assert "task,heuristic,status," in a.to_csv().splitlines()[0]
    single = run_experiment([("g1", task)], factories[:1])
    assert single.coverage() == {"blind": (1, 1)}
