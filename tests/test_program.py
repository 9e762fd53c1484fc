import numpy as np
import pytest

from planlearn.expressiveness import (
    grounded_twin_pair,
    random_unit_task,
    relaxation_program,
)
from planlearn.graphs import build_slg
from planlearn.heuristics import h_dp
from planlearn.task import StripsAction, StripsTask

from helpers import delete_relax


def test_goal_in_state_gives_zero():
    task = StripsTask(("p",), (), frozenset({0}), frozenset({0}))
    g = build_slg(task, task.init)
    for which in ("max", "add"):
        assert relaxation_program(g, which, rounds=1, bound=10).value == 0


def test_twin_fixture_matches_dp_exactly():
    p1, _ = grounded_twin_pair()
    g = build_slg(p1, p1.init)
    for which in ("max", "add"):
        oracle = h_dp(p1, p1.init, which)
        got = relaxation_program(g, which, rounds=4, bound=10)
        assert got.value == oracle.value


def test_del_edges_ignored_everywhere():
    """Running on the full graph and on the delete-free subgraph agrees."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        task = random_unit_task(rng)
        relaxed = delete_relax(task)
        g_full = build_slg(task, task.init)
        g_free = build_slg(relaxed, relaxed.init)
        for which in ("max", "add"):
            iters = h_dp(task, task.init, which).iterations
            a = relaxation_program(g_full, which, rounds=iters, bound=64)
            b = relaxation_program(g_free, which, rounds=iters, bound=64)
            assert a == b


def test_random_sweep_equals_dp():
    rng = np.random.default_rng(2)
    for _ in range(100):
        task = random_unit_task(rng)
        g = build_slg(task, task.init)
        for which in ("max", "add"):
            oracle = h_dp(task, task.init, which)
            got = relaxation_program(g, which, rounds=oracle.iterations, bound=64)
            assert got.infinite == oracle.infinite
            if not oracle.infinite:
                assert got.value == oracle.value


def test_unreachable_goal_decodes_to_infinity():
    task = StripsTask(("p", "q"), (StripsAction("a", frozenset({1}), frozenset({0}),
                                                frozenset()),),
                      frozenset(), frozenset({0}))
    g = build_slg(task, task.init)
    out = relaxation_program(g, "max", rounds=2, bound=8)
    assert out.infinite


def test_bound_check_flags_action_overflow():
    """Three unreached preconditions sum past the bound; the program
    saturates and still decodes to INFINITY."""
    task = StripsTask(
        ("x", "y", "z", "g"),
        (StripsAction("big", frozenset({0, 1, 2}), frozenset({3}), frozenset()),),
        frozenset(), frozenset({3}))
    g = build_slg(task, task.init)
    assert relaxation_program(g, "add", rounds=2, bound=4).infinite


def test_rejects_non_propositional_graph(gripper_fdr):
    from helpers import build_flg
    g = build_flg(gripper_fdr, gripper_fdr.init)
    with pytest.raises(ValueError):
        relaxation_program(g, "max", rounds=1, bound=8)
