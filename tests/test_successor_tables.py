"""Differential test: StripsTask.successors, which ORs 16-entry tables of
blocked actions per group of 4 propositions and walks the unblocked action
bits, against one precondition-mask test per action (`reference_successors`).
Both must give the same (action id, successor) list, order included, on
reachable states, arbitrary (also unreachable) states and edge-case tasks."""

import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn.expressiveness import random_unit_task
from planlearn.task import StripsAction, StripsTask

from helpers import bench_task, reference_successors


def first_states(task, cap):
    """The first `cap` states in breadth-first order, by the reference."""
    start = task.encode(task.init)
    seen, order, queue = {start}, [start], deque([start])
    while queue and len(order) < cap:
        for _, nxt in reference_successors(task, queue.popleft()):
            if nxt not in seen and len(order) < cap:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


@pytest.mark.parametrize("domain, size", [("gripper", 3), ("blocksworld", 4),
                                          ("visitall", 3), ("spanner", 3)])
def test_successors_match_on_bfs_states(domain, size):
    task = bench_task(domain, size)
    states = first_states(task, 2000)
    assert len(states) > 50
    for state in states:
        assert task.successors(state) == reference_successors(task, state)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.data())
def test_random_task_arbitrary_states(seed, data):
    task = random_unit_task(np.random.default_rng(seed), max_props=20, max_actions=80)
    every = (1 << len(task.propositions)) - 1
    for state in (0, every, *data.draw(st.lists(st.integers(0, every), max_size=20))):
        assert task.successors(state) == reference_successors(task, state)


def edge_task(n_props, n_actions, seed=0):
    """Random actions over n_props propositions; action 0 has no
    precondition and action 1 needs only the highest proposition id."""
    rng = np.random.default_rng(seed)
    actions = []
    for aid in range(n_actions):
        if aid == 0 or n_props == 0:
            pre = frozenset()
        elif aid == 1:
            pre = frozenset({n_props - 1})
        else:
            pre = frozenset(int(p) for p in rng.choice(
                n_props, size=int(rng.integers(0, min(4, n_props) + 1)), replace=False))
        add = frozenset(int(p) for p in rng.choice(n_props, size=min(2, n_props), replace=False))
        dele = frozenset(p for p in range(n_props) if p not in add and rng.random() < 0.2)
        actions.append(StripsAction(f"a{aid}", pre, add, dele))
    props = tuple(f"p{i}" for i in range(n_props))
    return StripsTask(props, tuple(actions), frozenset(), frozenset())


@pytest.mark.parametrize("n_props", [0, 1, 3, 5, 8, 65])
@pytest.mark.parametrize("n_actions", [0, 1, 2, 70])
def test_edge_case_tasks(n_props, n_actions):
    task = edge_task(n_props, n_actions)
    every = (1 << n_props) - 1
    rng = np.random.default_rng(n_props * 100 + n_actions)
    states = {0, every, every ^ (every >> 1), every >> 1}
    states.update(int(rng.integers(0, 2, n_props) @ (1 << np.arange(n_props, dtype=object)))
                  for _ in range(100))
    for state in sorted(states):
        got = task.successors(state)
        assert got == reference_successors(task, state)
        if n_actions:
            assert got[0][0] == 0  # no precondition: applicable everywhere
    if n_actions > 1 and n_props:
        assert 1 in [aid for aid, _ in task.successors(1 << (n_props - 1))]
        assert 1 not in [aid for aid, _ in task.successors(every >> 1)]


def deep_size(rows):
    return sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row) for row in rows)


@pytest.mark.parametrize("domain, size", [("gripper", 9), ("blocksworld", 7),
                                          ("visitall", 12), ("gripper", 40),
                                          ("blocksworld", 20)])
def test_tables_take_no_more_memory_than_the_masks(domain, size):
    """One 16-entry table per 4 propositions, at most as large in bytes as
    the per-action masks."""
    task = bench_task(domain, size)
    masks = task.masks
    assert len(masks.blocked) == -(-len(task.propositions) // 4)
    assert all(len(table) == 16 and table[0] == 0 for table in masks.blocked)
    assert deep_size(masks.blocked) <= deep_size(masks.actions)
