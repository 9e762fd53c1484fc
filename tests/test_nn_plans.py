"""Aggregation plans: what the model's per-topology scatter index relies on
and who keeps it.

The backward scatters into edge sources through the destination index,
which is exact only because `LearningGraph.adjacency` lists every edge's two
orientations as an adjacent pair; plan entries are keyed by label and hidden
width, kept by a graph's edge storage for one-graph batches and by nobody for
several.
"""

import numpy as np
import pytest
from helpers import reference_forward_backward
from hypothesis import given, settings
from hypothesis import strategies as st

from planlearn.graphs import LearningGraph, build_slg, llg_kind, slg_kind
from planlearn.graphs.builders import slg_graphs
from planlearn.nn import backward_packed, forward, forward_packed, init_model, pack_graphs
from planlearn.nn import model as nn_model

# Values whose sums depend on the order they are added in, and signed zeros.
VALUES = st.sampled_from([-0.0, 0.0, 0.1, -0.3, 1.0, -1.0, 1e16, -1e16])


@st.composite
def random_graphs(draw, kind=slg_kind()):
    n = draw(st.integers(2, 10))
    edges, seen = [], set()
    for u, v, lab in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.sampled_from(kind.labels)), max_size=30)):
        key = (min(u, v), max(u, v), lab)
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v, lab))
    features = np.array(draw(st.lists(VALUES, min_size=n * kind.dim, max_size=n * kind.dim)))
    return LearningGraph(kind, features.reshape(n, kind.dim), edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.data())
def test_source_scatter_equals_destination_scatter_of_swapped_pairs(graph, data):
    """sum of X[dst] into sources == sum of X[src] into destinations, and a
    per-edge array scattered into sources == its pair-swapped rows scattered
    into destinations, bit for bit and sign of zero included."""
    width = 3
    n = graph.num_nodes
    plan = nn_model._plan(pack_graphs([graph]), width)
    x = np.array(data.draw(st.lists(VALUES, min_size=n * width, max_size=n * width)))
    x = x.reshape(n, width)
    for lab, lp in plan.labels.items():
        dst, src = graph.adjacency(lab)
        by_source = nn_model._flat_index(src, width)
        got = nn_model._scatter_add(lp.flat, x[src], n)
        want = nn_model._scatter_add(by_source, x[dst], n)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        per_edge = np.array(data.draw(st.lists(VALUES, min_size=len(dst) * width,
                                               max_size=len(dst) * width)))
        per_edge = per_edge.reshape(len(dst), width)
        got = nn_model._scatter_add(lp.flat, nn_model._swap_orientations(per_edge), n)
        want = nn_model._scatter_add(by_source, per_edge, n)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=30, deadline=None)
@given(random_graphs(), random_graphs(), st.sampled_from(nn_model.AGGREGATORS),
       st.sampled_from(nn_model.READOUTS))
def test_random_graphs_match_reference(g1, g2, aggregator, readout):
    model = init_model(g1.kind, layer_count=2, hidden_dim=4, aggregator=aggregator,
                       readout=readout, seed=3)
    for graphs in ([g1], [g1, g2]):
        batch = pack_graphs(graphs)
        out, cache = forward_packed(model, batch, need_cache=True)
        dout = np.linspace(-1.0, 1.0, len(graphs))
        grads = backward_packed(model, batch, cache, dout)
        ref_out, ref_grads = reference_forward_backward(model, graphs, dout)
        assert np.array_equal(out, ref_out)
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_pack_keeps_both_orientations_adjacent(gripper_ground):
    task, _ = gripper_ground
    graph_of = slg_graphs(task)
    batch = pack_graphs([graph_of(task.init), graph_of(frozenset()), graph_of(task.goal)])
    for dst, src in batch.adjacency.values():
        assert len(dst) % 2 == 0
        assert np.array_equal(dst[0::2], src[1::2]) and np.array_equal(dst[1::2], src[0::2])


def test_plan_rejects_unpaired_edges(gripper_ground):
    task, _ = gripper_ground
    batch = pack_graphs([build_slg(task, task.init), build_slg(task, task.goal)])
    dst, src = batch.adjacency["pre"]
    batch.adjacency["pre"] = (dst, np.roll(src, 2))
    with pytest.raises(ValueError, match="both orientations"):
        forward_packed(init_model(slg_kind(), 2, 4), batch)


def test_plans_are_keyed_by_width(gripper_ground):
    task, _ = gripper_ground
    graph = build_slg(task, task.init)
    for width in (8, 16):
        for aggregator in nn_model.AGGREGATORS:
            model = init_model(graph.kind, 3, width, aggregator, "max", seed=width)
            assert forward(model, graph) == forward(model, build_slg(task, task.init))
    assert sorted(graph._plans) == sorted([*graph.kind.labels, nn_model._READOUT])
    assert all(sorted(by_width) == [8, 16] for by_width in graph._plans.values())


def test_one_graph_batches_share_the_template_plan(gripper_ground):
    task, _ = gripper_ground
    graph_of = slg_graphs(task)
    first, second = graph_of(task.init), graph_of(task.goal)
    assert first._plans is second._plans
    model = init_model(first.kind, 2, 8)
    forward(model, first)
    entry = first._plans["pre"][8]
    forward(model, second)
    assert second._plans["pre"][8] is entry


def test_several_graph_batches_keep_no_plan(gripper_ground):
    task, _ = gripper_ground
    graphs = [build_slg(task, task.init), build_slg(task, task.goal)]
    model = init_model(graphs[0].kind, 2, 8)
    batch = pack_graphs(graphs)
    _, cache = forward_packed(model, batch, need_cache=True)
    backward_packed(model, batch, cache, np.ones(2))
    assert batch.plans is None
    assert all(not g._plans for g in graphs)


def test_graphs_and_batches_compare_by_identity(gripper_ground):
    task, _ = gripper_ground
    graph = build_slg(task, task.init)
    forward(init_model(graph.kind, 2, 4), graph)   # a cached plan stays out of comparisons
    copy = graph.with_features(graph.features.copy())
    assert graph == graph and graph != copy
    assert len({graph, copy, graph}) == 2
    batch = pack_graphs([graph])
    assert batch == batch and batch != pack_graphs([graph])
    lifted = LearningGraph(llg_kind(1), np.zeros((2, 6)), [(0, 1, "nu")])
    assert lifted != LearningGraph(llg_kind(1), np.zeros((2, 6)), [(0, 1, "nu")])
