"""Relational message-passing network over learning graphs, dense float64.

Layer update: h_u <- relu(W_self h_u + sum_over_labels agg_label(W_label h_v
for neighbors v under that label) + bias). Aggregation over an empty
neighborhood contributes the zero vector for every aggregator. A readout
over final embeddings feeds a two-layer head (relu hidden, identity output),
so heuristic estimates are unbounded above.

Forward and backward are implemented here directly; the backward pass
returns gradients keyed like the parameter dictionary.

Every sum over edges or nodes (sum and mean aggregation, their backward,
the max tie counts, sum and mean readout) goes through one primitive,
`_scatter_add`: a single np.bincount over the flat positions index*F +
column, weighted by the row values. bincount adds each bin's weights in
input order starting from zero, which is exactly what np.add.at does, so
results are bit-identical to it and model files, loss traces and search
counters do not depend on which of the two computes them. Max aggregation
and max readout go through `_scatter_max`, one np.maximum.at over the same
flat positions; on a 1-D array numpy (1.25 and later) runs it about three
times faster than np.maximum.reduceat over destination-sorted segments,
measured on 16-graph slg training batches. The operation order is otherwise
that of the plain formulation above: messages are W_label h, gathered per
edge and then summed, never reassociated as W_label (A h).

A forward with `need_cache` keeps, per layer, the layer input and its ReLU
mask and, per label, what that label's aggregation backward reads: for max,
the (E, F) bool mask of the edges whose gathered message equals their
destination's max (the attain mask, ties included); for sum and mean,
nothing. The max backward therefore neither recomputes the messages
W_label h nor keeps the (N, F) float64 aggregate. A forward without a
cache computes no mask.

The flat indices depend only on a batch's topology and the hidden width F,
so they live in an aggregation plan (`_Plan`) built once per topology and
width. Per non-empty label a plan holds the flat destination index, the
mean divisor (in-degree, at least 1) and the rows without in-edges, which
max sets to zero; it also holds the readout's flat graph index. A graph's
plans are owned by its edge storage, keyed by F, and shared by every
`with_features` copy, so a search evaluating one state per call builds one
plan per slg/flg task and every theory graph one per width. Only training
packs several graphs: such a batch builds its plan on entry to
`forward_packed`, hands it to `backward_packed` in the cache, and keeps
nothing. A training batch's plan serves one forward and one backward, and
the hold-out batch's would live for the whole run: keeping them on the
batch only held memory (peak RSS of the `train-slg` benchmark went from
58.6 to 62.3 MB, of `train-llg` from 71.2 to 75.5 MB, with no faster step).
Every other estimate is one forward of one graph, because a several-graph
forward differs from per-graph ones in the last digits (OpenBLAS picks its
kernel by row count), and search values must not depend on batching.

The backward scatters into sources rather than destinations, and uses the
destination index for that too. `LearningGraph.adjacency` lists each
undirected edge as the adjacent pair (u->v, v->u) and has no self-loops,
so summing X[dst] into sources gives every node the same contributions in
the same order as summing X[src] into destinations:
_scatter_add(src, X[dst]) equals _scatter_add(dst, X[src]) bit for bit,
and per-edge values scatter into sources as the dst scatter of their
pair-swapped rows. `pack_graphs` keeps each pair adjacent, and building a
plan checks it.

Only numpy is used. A scipy.sparse operator would be faster per product,
but importing scipy costs tens of MB and a fraction of a second in every
process that imports this package, which is most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import DimensionMismatch
from ..graphs.core import GraphKind, LearningGraph
from ..seeding import rng_for

AGGREGATORS = ("mean", "max", "sum")
READOUTS = ("sum", "mean", "max")


@dataclass
class MpnnModel:
    kind: GraphKind
    layer_count: int
    hidden_dim: int
    aggregator: str
    readout: str
    seed: int
    params: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.kind.labels


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def param_shapes(kind: GraphKind, layer_count: int, hidden_dim: int) -> dict[str, tuple]:
    """Name and shape of every parameter, in the order init_model draws them."""
    F = hidden_dim
    shapes = {"input_proj": (F, kind.dim)}
    for t in range(layer_count):
        shapes[f"layer{t}.self"] = (F, F)
        shapes[f"layer{t}.bias"] = (F,)
        for lab in kind.labels:
            shapes[f"layer{t}.label.{lab}"] = (F, F)
    shapes.update({"head.w1": (F, F), "head.b1": (F,), "head.w2": (F,), "head.b2": (1,)})
    return shapes


def init_model(kind: GraphKind, layer_count: int = 8, hidden_dim: int = 64,
               aggregator: str = "mean", readout: str = "sum",
               seed: int = 0) -> MpnnModel:
    """Glorot-uniform matrices (head.w2 drawn as one row) and zero biases."""
    if aggregator not in AGGREGATORS:
        raise ValueError(f"aggregator must be one of {AGGREGATORS}")
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}")
    rng = rng_for(seed, "model-init")
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(kind, layer_count, hidden_dim).items():
        if name == "head.w2":
            params[name] = _glorot(rng, 1, hidden_dim)[0]
        elif len(shape) == 2:
            params[name] = _glorot(rng, *shape)
        else:
            params[name] = np.zeros(shape)
    return MpnnModel(kind, layer_count, hidden_dim, aggregator, readout, seed, params)


# ── graph packing ─────────────────────────────────────────────────────────

@dataclass(eq=False)
class PackedBatch:
    """Disjoint union of graphs sharing one node-feature matrix.

    `plans` is the graph's own plan table for a one-graph batch and None
    for several graphs, whose plan lives for one forward and backward."""

    kind: GraphKind
    features: np.ndarray                       # (N, d)
    adjacency: dict[str, tuple[np.ndarray, np.ndarray]]   # label -> (dst, src)
    segments: np.ndarray                       # (N,) graph index per node
    num_graphs: int
    node_counts: np.ndarray                    # (num_graphs,)
    plans: dict | None = None                  # hidden width -> _Plan


def pack_graphs(graphs: list[LearningGraph]) -> PackedBatch:
    if not graphs:
        raise ValueError("cannot pack an empty batch")
    kind = graphs[0].kind
    for g in graphs:
        if g.kind != kind:
            raise DimensionMismatch(
                f"mixed graph kinds in batch: {g.kind} vs {kind}")
        if g.num_nodes == 0:
            raise ValueError("cannot evaluate a graph with no nodes")
    features = np.concatenate([g.features for g in graphs], axis=0)
    counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    segments = np.repeat(np.arange(len(graphs), dtype=np.int64), counts)
    adjacency = {}
    for lab in kind.labels:
        dsts, srcs = [], []
        for g, off in zip(graphs, offsets):
            dst, src = g.adjacency(lab)
            if len(dst):
                dsts.append(dst + off)
                srcs.append(src + off)
        if dsts:
            adjacency[lab] = (np.concatenate(dsts), np.concatenate(srcs))
        else:
            empty = np.zeros(0, dtype=np.int64)
            adjacency[lab] = (empty, empty)
    return PackedBatch(kind, features, adjacency, segments, len(graphs), counts,
                       graphs[0]._plans if len(graphs) == 1 else None)


# ── aggregation plans ─────────────────────────────────────────────────────

class _LabelPlan(NamedTuple):
    dst: np.ndarray          # (E,) destination per edge; orientations adjacent
    src: np.ndarray          # (E,) source per edge
    flat: np.ndarray         # (E*F,) dst*F + column: the scatter index
    divisor: np.ndarray      # (N, 1) in-degree, at least 1
    isolated: np.ndarray     # (N,) rows with no in-edge


class _Plan(NamedTuple):
    labels: dict[str, _LabelPlan]   # non-empty labels, in kind order
    readout: np.ndarray             # (N*F,) graph*F + column


def _flat_index(index, width):
    return (index[:, None] * width + np.arange(width)).ravel()


def _build_plan(batch: PackedBatch, width: int) -> _Plan:
    n = batch.features.shape[0]
    labels = {}
    for lab in batch.kind.labels:
        dst, src = batch.adjacency[lab]
        if len(dst) == 0:
            continue
        if not (np.array_equal(dst[0::2], src[1::2]) and np.array_equal(dst[1::2], src[0::2])):
            raise ValueError(f"{lab!r} edges must list both orientations of each edge adjacently")
        degree = np.bincount(dst, minlength=n)
        labels[lab] = _LabelPlan(dst, src, _flat_index(dst, width),
                                 np.maximum(degree, 1).astype(np.float64)[:, None],
                                 degree == 0)
    return _Plan(labels, _flat_index(batch.segments, width))


def _plan(batch: PackedBatch, width: int) -> _Plan:
    """The batch's plan for hidden width `width`: the graph's cached one
    for a one-graph batch, a fresh one otherwise."""
    if batch.plans is None:
        return _build_plan(batch, width)
    plan = batch.plans.get(width)
    if plan is None:
        plan = batch.plans[width] = _build_plan(batch, width)
    return plan


# ── forward / backward ────────────────────────────────────────────────────

def _scatter_add(flat, values, n):
    """(n, F) rows out[i] = sum of values[e] over the edges e that `flat`
    (a plan's flat index) sends to row i, in order."""
    width = values.shape[1]
    return np.bincount(flat, weights=values.ravel(),
                       minlength=n * width).reshape(n, width)


def _scatter_max(flat, values, n):
    """(n, F) rows out[i] = max of values[e] over the edges e that `flat`
    sends to row i; -inf where there are none."""
    width = values.shape[1]
    out = np.full(n * width, -np.inf)
    np.maximum.at(out, flat, values.ravel())
    return out.reshape(n, width)


def _swap_orientations(values):
    """Per-edge rows with the two orientations of every edge exchanged."""
    return values.reshape(-1, 2, values.shape[1])[:, ::-1].reshape(values.shape)


def _aggregate(messages, lp: _LabelPlan, aggregator, need_mask=False):
    """Aggregate per-edge messages messages[src] into destination rows.
    Returns (out, attain): with `need_mask`, max's attain is the (E, F) bool
    mask of the edges whose message equals their destination's max; it is
    None otherwise and for sum and mean."""
    n = messages.shape[0]
    if aggregator == "max":
        gathered = messages[lp.src]
        out = _scatter_max(lp.flat, gathered, n)
        attain = gathered == out[lp.dst] if need_mask else None
        out[lp.isolated] = 0.0
        return out, attain
    out = _scatter_add(lp.flat, messages[lp.src], n)
    if aggregator == "mean":
        out /= lp.divisor
    return out, None


def _aggregate_backward(dout, attain, lp: _LabelPlan, aggregator):
    """Gradient wrt per-node messages, an (n, F) array. The backward cache
    holds, per label and layer, max's (E, F) bool attain mask from
    `_aggregate` and nothing for sum and mean, which read only `dout`.
    Scatters into sources through the destination index (see the module
    docstring)."""
    n = dout.shape[0]
    if aggregator == "sum":
        return _scatter_add(lp.flat, dout[lp.src], n)
    if aggregator == "mean":
        return _scatter_add(lp.flat, (dout / lp.divisor)[lp.src], n)
    # max: route to attaining edges, splitting equally among ties
    attain = attain.astype(np.float64)
    tie_count = np.maximum(_scatter_add(lp.flat, attain, n), 1.0)
    attain /= tie_count[lp.dst]     # in place: E*F temporaries set peak memory
    attain *= dout[lp.dst]
    return _scatter_add(lp.flat, _swap_orientations(attain), n)


def _segment_reduce(h, plan: _Plan, batch: PackedBatch, readout):
    if readout == "max":
        out = _scatter_max(plan.readout, h, batch.num_graphs)   # no graph is empty
        return out, out
    out = _scatter_add(plan.readout, h, batch.num_graphs)
    if readout == "mean":
        out /= batch.node_counts[:, None]
    return out, None


def _segment_reduce_backward(dout, h, reduced, plan: _Plan, batch: PackedBatch, readout):
    segments = batch.segments
    if readout == "sum":
        return dout[segments]
    if readout == "mean":
        return dout[segments] / batch.node_counts[segments, None]
    attain = (h == reduced[segments]).astype(np.float64)
    tie_count = _scatter_add(plan.readout, attain, len(reduced))
    return dout[segments] * attain / np.maximum(tie_count[segments], 1.0)


def _check_kind(model: MpnnModel, kind: GraphKind, dim: int):
    if kind != model.kind:
        raise DimensionMismatch(f"graph kind {kind} does not match model kind {model.kind}")
    if dim != model.kind.dim:
        raise DimensionMismatch(f"feature dim {dim} != expected {model.kind.dim}")


def forward_packed(model: MpnnModel, batch: PackedBatch, need_cache: bool = False):
    """Outputs for every graph in the batch; optionally the backward cache."""
    _check_kind(model, batch.kind, batch.features.shape[1])
    p = model.params
    plan = _plan(batch, model.hidden_dim)

    h = batch.features @ p["input_proj"].T
    layer_cache = []
    for t in range(model.layer_count):
        z = h @ p[f"layer{t}.self"].T + p[f"layer{t}.bias"]
        attains = {}
        for lab, lp in plan.labels.items():
            agg, attains[lab] = _aggregate(h @ p[f"layer{t}.label.{lab}"].T, lp,
                                           model.aggregator, need_cache)
            z += agg
        mask = z > 0
        new_h = np.where(mask, z, 0.0)
        if need_cache:
            layer_cache.append((h, mask, attains))
        h = new_h

    g, readout_max = _segment_reduce(h, plan, batch, model.readout)
    z1 = g @ p["head.w1"].T + p["head.b1"]
    a1 = np.where(z1 > 0, z1, 0.0)
    out = a1 @ p["head.w2"] + p["head.b2"][0]
    if not need_cache:
        return out, None
    cache = {"layers": layer_cache, "final_h": h, "g": g, "z1": z1, "a1": a1,
             "readout_max": readout_max, "plan": plan}
    return out, cache


def backward_packed(model: MpnnModel, batch: PackedBatch, cache, dout: np.ndarray):
    """Gradients of sum_b dout[b] * output[b] wrt every parameter."""
    p = model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    a1, z1, g = cache["a1"], cache["z1"], cache["g"]
    plan = cache["plan"]

    grads["head.b2"][0] = dout.sum()
    grads["head.w2"][:] = a1.T @ dout
    da1 = np.outer(dout, p["head.w2"])
    dz1 = np.where(z1 > 0, da1, 0.0)
    grads["head.b1"][:] = dz1.sum(axis=0)
    grads["head.w1"][:] = dz1.T @ g
    dg = dz1 @ p["head.w1"]

    dh = _segment_reduce_backward(dg, cache["final_h"], cache["readout_max"],
                                  plan, batch, model.readout)

    for t in reversed(range(model.layer_count)):
        h_in, mask, attains = cache["layers"][t]
        dz = np.where(mask, dh, 0.0)
        grads[f"layer{t}.bias"][:] = dz.sum(axis=0)
        grads[f"layer{t}.self"][:] = dz.T @ h_in
        dh = dz @ p[f"layer{t}.self"]
        for lab, lp in plan.labels.items():
            w = p[f"layer{t}.label.{lab}"]
            dM = _aggregate_backward(dz, attains[lab], lp, model.aggregator)
            grads[f"layer{t}.label.{lab}"][:] = dM.T @ h_in
            dh += dM @ w

    grads["input_proj"][:] = dh.T @ batch.features
    return grads


def forward(model: MpnnModel, graph: LearningGraph) -> float:
    """Scalar output for one graph; deterministic."""
    out, _ = forward_packed(model, pack_graphs([graph]))
    return float(out[0])


def forward_batch(model: MpnnModel, graphs: list[LearningGraph]) -> np.ndarray:
    """`forward` mapped over the list: each value depends only on its graph."""
    return np.array([forward(model, g) for g in graphs], dtype=np.float64)
