from collections import Counter

import pytest

from planlearn.errors import InvalidSize
from planlearn.expressiveness import (
    delete_relaxation_gap_task,
    grounded_twin_pair,
    lifted_twin_pair,
    scaling_twin_pair,
)
from planlearn.graphs import build_slg
from planlearn.heuristics import h_star
from planlearn.task import Atom, ground

from helpers import delete_relax


def test_lifted_pair_structure():
    t1, t2 = lifted_twin_pair()
    assert t1.predicates == t2.predicates
    assert t1.schemas == t2.schemas
    assert t1.goal == t2.goal
    assert t1.init != t2.init
    assert Atom("q", ("o1", "o2")) in t1.init
    assert Atom("q", ("o1", "o1")) in t2.init


def test_lifted_pair_solvability():
    t1, t2 = lifted_twin_pair()
    g1, _ = ground(t1, prune_statics=False)
    g2, _ = ground(t2, prune_statics=False)
    assert h_star(g1).value == 2
    assert h_star(g2).infinite


def test_grounded_pair_action_signatures():
    p1, p2 = grounded_twin_pair()
    assert len(p1.actions) == len(p2.actions) == 6
    for task in (p1, p2):
        assert all(not a.dele for a in task.actions)
        assert Counter(len(a.pre) for a in task.actions) == Counter({0: 2, 1: 4})


def test_scaling_pair_reduces_to_grounded_pair_at_two():
    small1, small2 = scaling_twin_pair(2)
    p1, p2 = grounded_twin_pair()

    def wiring(task):
        # both generators lay propositions out in the same id order
        return Counter((tuple(sorted(a.pre)), tuple(sorted(a.add)))
                       for a in task.actions)

    assert len(small1.propositions) == len(p1.propositions)
    assert small1.goal == p1.goal
    assert wiring(small1) == wiring(p1)
    assert wiring(small2) == wiring(p2)
    assert h_star(small1).value == h_star(p1).value == 4
    assert h_star(small2).value == h_star(p2).value == 3


def test_scaling_pair_rejects_small_n():
    with pytest.raises(InvalidSize):
        scaling_twin_pair(1)


def test_gap_task_graph_distinguishes_relaxation():
    task = delete_relaxation_gap_task()
    relaxed = delete_relax(task)
    g = build_slg(task, task.init)
    g_rel = build_slg(relaxed, relaxed.init)
    assert g.label_counts()["del"] == 1
    assert g_rel.label_counts()["del"] == 0
    assert g.num_edges == g_rel.num_edges + 1
