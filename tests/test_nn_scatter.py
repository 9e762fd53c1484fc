"""Differential test: the model's forward and backward against the
np.add.at / np.maximum.at reference in tests/helpers.py.

The reference packs the graphs itself and scatters the backward into
sources, so it shares no plan, index or packing code with the model. Every
comparison is exact (np.array_equal), because the fast path promises the
same operation order, not merely close results. Batches of one graph use
the plan cached on the graph's edge storage; batches of several graphs build
theirs per call; `with_features` copies reuse their template's.
"""

import numpy as np
import pytest
from helpers import reference_aggregate, reference_aggregate_backward, reference_forward_backward

from planlearn.graphs import IndexEncoder, LearningGraph, build_llg, slg_kind, state_graphs
from planlearn.graphs.builders import slg_graphs
from planlearn.nn import backward_packed, forward_packed, init_model, pack_graphs
from planlearn.nn import model as nn_model
from planlearn.task import strips_view, successors
from planlearn.task.ground import ground_state_atoms


def tie_graph():
    """slg graph with ties, isolated nodes and labels without edges.

    Node 0 is a hub over three identical leaves (1-3) under `pre` only, so
    every max over the leaves ties; nodes 4 and 5 are isolated and identical,
    so a max readout ties too; `add` and `del` have no edges.
    """
    features = np.array([[1.0, 0.0, 1.0]] + [[0.0, 1.0, 0.0]] * 3 + [[1.0, 1.0, 0.0]] * 2)
    return LearningGraph(slg_kind(), features, [(0, 1, "pre"), (0, 2, "pre"), (0, 3, "pre")])


def first_states(task):
    """The initial state and its successors, as the builders take them."""
    s0 = task.encode(task.init)
    return [task.init] + [task.decode(nxt) for _, nxt in successors(task, s0)]


def with_random_features(graph, seed):
    """A `with_features` copy of `graph` with random rows of the same shape."""
    rows = np.round(np.random.default_rng(seed).random(graph.features.shape), 1)
    return graph.with_features(rows)


@pytest.fixture(scope="module")
def graph_lists(gripper_lifted, gripper_ground, gripper_fdr):
    """Per kind, graphs to evaluate alone and as one batch. slg and flg
    states are copies of one task template, so they share its plans."""
    task, gmap = gripper_ground
    slg = slg_graphs(task)
    view = strips_view(gripper_fdr)
    flg = state_graphs("flg", view, fdr=gripper_fdr)
    encoder = IndexEncoder(4, seed=0)
    slg_list = [slg(s) for s in first_states(task)[:4]] + [tie_graph()]
    flg_list = [flg(s) for s in first_states(view)[:4]]
    llg_list = [build_llg(gripper_lifted, ground_state_atoms(gmap, s), encoder)
                for s in first_states(task)[:3]]
    return {kind: graphs + [with_random_features(graphs[0], 5)]
            for kind, graphs in (("slg", slg_list), ("flg", flg_list), ("llg", llg_list))}


def run(model, graphs):
    batch = pack_graphs(graphs)
    out, cache = forward_packed(model, batch, need_cache=True)
    dout = np.linspace(-1.0, 1.0, len(out))
    return out, backward_packed(model, batch, cache, dout), dout


def assert_matches_reference(model, graphs):
    out, grads, dout = run(model, graphs)
    ref_out, ref_grads = reference_forward_backward(model, graphs, dout)
    assert np.array_equal(out, ref_out)
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("kind", ["slg", "flg", "llg"])
@pytest.mark.parametrize("aggregator", ["mean", "max", "sum"])
@pytest.mark.parametrize("readout", ["sum", "mean", "max"])
def test_forward_and_gradients_bit_identical(graph_lists, kind, aggregator, readout):
    graphs = graph_lists[kind]
    model = init_model(graphs[0].kind, layer_count=3, hidden_dim=8,
                       aggregator=aggregator, readout=readout, seed=7)
    assert_matches_reference(model, graphs)
    for g in graphs:
        assert_matches_reference(model, [g])
    # a second pass runs every one-graph batch on the plan the first cached
    for g in graphs:
        assert all(model.hidden_dim in by_width for by_width in g._plans.values())
        assert_matches_reference(model, [g])


def test_tie_graph_exercises_every_edge_case():
    batch = pack_graphs([tie_graph()])
    assert len(batch.adjacency["add"][0]) == 0 == len(batch.adjacency["del"][0])
    assert list(np.bincount(batch.adjacency["pre"][0], minlength=6)) == [3, 1, 1, 1, 0, 0]
    model = init_model(batch.kind, layer_count=3, hidden_dim=8, aggregator="max",
                       readout="max", seed=7)
    _, cache = forward_packed(model, batch, need_cache=True)
    for h_in, _, _ in cache["layers"]:
        # the hub's max over three identical leaf messages ties three ways
        assert np.array_equal(h_in[1], h_in[2]) and np.array_equal(h_in[1], h_in[3])
    h = cache["final_h"]
    assert np.array_equal(h[4], h[5])
    assert ((h == h.max(axis=0)).sum(axis=0) > 1).any()   # the max readout ties


@pytest.mark.parametrize("aggregator", ["mean", "max", "sum"])
def test_primitives_match_reference_on_random_edges(aggregator):
    rng = np.random.default_rng(3)
    n, width = 40, 5
    pairs = {(int(min(u, v)), int(max(u, v)))
             for u, v in rng.integers(n, size=(120, 2)) if u != v}
    graph = LearningGraph(slg_kind(), np.zeros((n, 3)), [(u, v, "pre") for u, v in sorted(pairs)])
    lp = nn_model._plan(pack_graphs([graph]), width).labels["pre"]
    dst, src = graph.adjacency("pre")
    messages = np.round(rng.standard_normal((n, width)), 1)   # many exact ties
    agg, attain = nn_model._aggregate(messages, lp, aggregator, need_mask=True)
    ref_agg = reference_aggregate(messages, dst, src, aggregator)
    assert np.array_equal(agg, ref_agg)
    no_mask_agg, no_mask = nn_model._aggregate(messages, lp, aggregator)
    assert np.array_equal(no_mask_agg, agg) and no_mask is None
    assert (attain is None) == (aggregator != "max")
    dout = rng.standard_normal((n, width))
    assert np.array_equal(
        nn_model._aggregate_backward(dout, attain, lp, aggregator),
        reference_aggregate_backward(dout, messages, ref_agg, dst, src, aggregator))


def max_batches(graph_lists):
    """The tie graph alone and, per kind, a several-graph batch."""
    return [[tie_graph()]] + list(graph_lists.values())


@pytest.mark.parametrize("readout", ["sum", "max"])
def test_max_forward_same_with_and_without_cache(graph_lists, readout):
    for graphs in max_batches(graph_lists):
        model = init_model(graphs[0].kind, layer_count=3, hidden_dim=8, aggregator="max",
                           readout=readout, seed=7)
        batch = pack_graphs(graphs)
        out, no_cache = forward_packed(model, batch)
        cached_out, _ = forward_packed(model, batch, need_cache=True)
        assert no_cache is None
        assert np.array_equal(out, cached_out)


@pytest.mark.parametrize("aggregator", ["mean", "max", "sum"])
def test_cache_holds_attain_masks_for_max_only(graph_lists, aggregator):
    for graphs in max_batches(graph_lists):
        model = init_model(graphs[0].kind, layer_count=3, hidden_dim=8,
                           aggregator=aggregator, readout="sum", seed=7)
        _, cache = forward_packed(model, pack_graphs(graphs), need_cache=True)
        plan = cache["plan"]
        for t, (h_in, _, attains) in enumerate(cache["layers"]):
            assert list(attains) == list(plan.labels)
            for lab, lp in plan.labels.items():
                if aggregator != "max":
                    assert attains[lab] is None
                    continue
                messages = h_in @ model.params[f"layer{t}.label.{lab}"].T
                ref_agg = reference_aggregate(messages, lp.dst, lp.src, "max")
                assert attains[lab].dtype == np.bool_
                assert attains[lab].shape == (len(lp.dst), model.hidden_dim)
                assert np.array_equal(attains[lab], messages[lp.src] == ref_agg[lp.dst])
