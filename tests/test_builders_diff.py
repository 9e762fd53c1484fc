"""Differential test: the template builders behind `state_graphs` give the
same graph as the full per-state builders they replaced (kept as the
reference in helpers.py), at every reachable state of the fixtures and of
random tasks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn.expressiveness import grounded_twin_pair, random_unit_task, wl_refine
from planlearn.graphs import build_flg, build_slg, state_graphs
from planlearn.task import binary_fdr_view

from helpers import reachable_states, reference_flg, reference_slg


def assert_same_graph(got, want):
    assert got.kind == want.kind
    assert got.node_names == want.node_names
    assert np.array_equal(got.features, want.features)
    assert got.features.dtype == want.features.dtype
    assert got.edges == want.edges
    for label in want.kind.labels:
        for a, b in zip(got.adjacency(label), want.adjacency(label)):
            assert np.array_equal(a, b)
    assert wl_refine(got) == wl_refine(want)


def assert_matches_reference(kind, task, states):
    reference = reference_slg if kind == "slg" else reference_flg
    graph_of = state_graphs(kind, task)
    for s in states:
        assert_same_graph(graph_of(s), reference(task, s))


def _tasks(gripper_ground):
    strips, _ = gripper_ground
    return {"gripper": strips, **dict(zip(("twin1", "twin2"), grounded_twin_pair()))}


def test_slg_matches_reference_on_fixtures(gripper_ground):
    for task in _tasks(gripper_ground).values():
        assert_matches_reference("slg", task, reachable_states(task))
        assert_matches_reference("slg", task, [frozenset(), task.goal])


def test_flg_matches_reference_on_fixtures(gripper_ground, gripper_fdr):
    tasks = [gripper_fdr] + [binary_fdr_view(t) for t in _tasks(gripper_ground).values()]
    for task in tasks:
        assert_matches_reference("flg", task, reachable_states(task))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 2**8 - 1))
def test_builders_match_reference_on_random_tasks(seed, subset):
    task = random_unit_task(np.random.default_rng(seed))
    arbitrary = frozenset(p for p in range(len(task.propositions)) if subset >> p & 1)
    assert_matches_reference("slg", task, reachable_states(task) + [arbitrary])
    fdr = binary_fdr_view(task)
    assert_matches_reference("flg", fdr, reachable_states(fdr))


def test_invalid_states_still_raise(gripper_ground, gripper_fdr):
    strips, _ = gripper_ground
    outside = frozenset({len(strips.propositions)})
    for build in (build_slg, reference_slg):
        with pytest.raises(ValueError, match="outside the task"):
            build(strips, outside)
    for build in (build_flg, reference_flg):
        with pytest.raises(ValueError, match="every variable"):
            build(gripper_fdr, gripper_fdr.init[:-1])
    # The full build left an out-of-domain variable without a state bit; the
    # template rewrite would set another variable's value, so it raises.
    for d in (-1, len(gripper_fdr.variables[0].values)):
        with pytest.raises(ValueError, match="outside the domain"):
            build_flg(gripper_fdr, (d,) + gripper_fdr.init[1:])


def test_state_graphs_rejects_mismatched_inputs(gripper_ground, gripper_fdr):
    strips, _ = gripper_ground
    with pytest.raises(TypeError):
        state_graphs("slg", gripper_fdr)
    with pytest.raises(TypeError):
        state_graphs("flg", strips)
    with pytest.raises(TypeError):
        state_graphs("llg", strips)
    with pytest.raises(ValueError, match="unknown graph kind"):
        state_graphs("xlg", strips)
