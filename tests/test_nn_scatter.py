"""Differential test: the bincount scatter and sorted-segment max against
np.add.at / np.maximum.at.

The reference functions below are the ufunc.at implementations the model
used before; they live here only as the slow oracle. Every comparison is
exact (np.array_equal), because the fast path promises the same operation
order, not merely close results.
"""

import numpy as np
import pytest

from planlearn.graphs import IndexEncoder, LearningGraph, build_flg, build_llg, build_slg, slg_kind
from planlearn.nn import backward_packed, forward_packed, init_model, pack_graphs
from planlearn.nn import model as nn_model
from planlearn.task import successors
from planlearn.task.ground import ground_state_atoms


def ref_aggregate(messages, dst, src, n, aggregator, counts):
    out = np.zeros((n, messages.shape[1]))
    if len(dst) == 0:
        return out, None
    if aggregator == "sum":
        np.add.at(out, dst, messages[src])
        return out, None
    if aggregator == "mean":
        np.add.at(out, dst, messages[src])
        nz = counts > 0
        out[nz] /= counts[nz, None]
        return out, None
    filled = np.full((n, messages.shape[1]), -np.inf)
    np.maximum.at(filled, dst, messages[src])
    filled[counts == 0] = 0.0
    return filled, filled


def ref_aggregate_backward(dout, messages, agg_out, dst, src, n, aggregator, counts):
    dM = np.zeros((n, dout.shape[1]))
    if len(dst) == 0:
        return dM
    if aggregator == "sum":
        np.add.at(dM, src, dout[dst])
        return dM
    if aggregator == "mean":
        scaled = dout / np.maximum(counts, 1)[:, None]
        np.add.at(dM, src, scaled[dst])
        return dM
    attain = (messages[src] == agg_out[dst]).astype(np.float64)
    tie_count = np.zeros((n, messages.shape[1]))
    np.add.at(tie_count, dst, attain)
    weight = attain / np.maximum(tie_count[dst], 1.0)
    np.add.at(dM, src, dout[dst] * weight)
    return dM


def ref_segment_reduce(h, segments, num_graphs, counts, readout):
    out = np.zeros((num_graphs, h.shape[1]))
    if readout in ("sum", "mean"):
        np.add.at(out, segments, h)
        if readout == "mean":
            out /= counts[:, None]
        return out, None
    filled = np.full((num_graphs, h.shape[1]), -np.inf)
    np.maximum.at(filled, segments, h)
    return filled, filled


def ref_segment_reduce_backward(dout, h, reduced, segments, counts, readout):
    if readout == "sum":
        return dout[segments]
    if readout == "mean":
        return dout[segments] / counts[segments, None]
    attain = (h == reduced[segments]).astype(np.float64)
    tie_count = np.zeros_like(reduced)
    np.add.at(tie_count, segments, attain)
    return dout[segments] * attain / np.maximum(tie_count[segments], 1.0)


REFERENCE = {
    "_aggregate": ref_aggregate,
    "_aggregate_backward": ref_aggregate_backward,
    "_segment_reduce": ref_segment_reduce,
    "_segment_reduce_backward": ref_segment_reduce_backward,
}


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


def slg_batch(task):
    states = first_states(task)
    return [build_slg(task, s) for s in states[:4]] + [tie_graph()]


def flg_batch(task):
    states = first_states(task)
    return [build_flg(task, s) for s in states[:4]]


def llg_batch(lifted, task, gmap):
    encoder = IndexEncoder(4, seed=0)
    states = first_states(task)
    return [build_llg(lifted, ground_state_atoms(gmap, s), encoder) for s in states[:3]]


@pytest.fixture(scope="module")
def batches(gripper_lifted, gripper_ground, gripper_fdr):
    task, gmap = gripper_ground
    return {
        "slg": pack_graphs(slg_batch(task)),
        "flg": pack_graphs(flg_batch(gripper_fdr)),
        "llg": pack_graphs(llg_batch(gripper_lifted, task, gmap)),
    }


def run(model, batch):
    out, cache = forward_packed(model, batch, need_cache=True)
    dout = np.linspace(-1.0, 1.0, len(out))
    return out, backward_packed(model, batch, cache, dout)


@pytest.mark.parametrize("kind", ["slg", "flg", "llg"])
@pytest.mark.parametrize("aggregator", ["mean", "max", "sum"])
@pytest.mark.parametrize("readout", ["sum", "mean", "max"])
def test_forward_and_gradients_bit_identical(batches, monkeypatch, kind, aggregator, readout):
    batch = batches[kind]
    model = init_model(batch.kind, layer_count=3, hidden_dim=8,
                       aggregator=aggregator, readout=readout, seed=7)
    out, grads = run(model, batch)
    for name, fn in REFERENCE.items():
        monkeypatch.setattr(nn_model, name, fn)
    ref_out, ref_grads = run(model, batch)
    assert np.array_equal(out, ref_out)
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


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
    dst, src = rng.integers(n, size=200), rng.integers(n, size=200)
    messages = np.round(rng.standard_normal((n, width)), 1)   # many exact ties
    counts = np.bincount(dst, minlength=n)
    agg, cache = nn_model._aggregate(messages, dst, src, n, aggregator, counts)
    ref_agg, ref_cache = ref_aggregate(messages, dst, src, n, aggregator, counts)
    assert np.array_equal(agg, ref_agg)
    dout = rng.standard_normal((n, width))
    assert np.array_equal(
        nn_model._aggregate_backward(dout, messages, cache, dst, src, n, aggregator, counts),
        ref_aggregate_backward(dout, messages, ref_cache, dst, src, n, aggregator, counts))
