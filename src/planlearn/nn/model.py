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
and max readout go through `_segment_max`: a stable sort by destination
and np.maximum.reduceat over the resulting segments; max is exact, so it
equals np.maximum.at too. The operation order is otherwise that of the
plain formulation above: messages are W_label h, gathered per edge and
then summed, never reassociated as W_label (A h).

Only numpy is used. A scipy.sparse operator would be faster per product,
but importing scipy costs tens of MB and a fraction of a second in every
process that imports this package, which is most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def init_model(kind: GraphKind, layer_count: int = 8, hidden_dim: int = 64,
               aggregator: str = "mean", readout: str = "sum",
               seed: int = 0) -> MpnnModel:
    if aggregator not in AGGREGATORS:
        raise ValueError(f"aggregator must be one of {AGGREGATORS}")
    if readout not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}")
    rng = rng_for(seed, "model-init")
    F, d = hidden_dim, kind.dim
    params: dict[str, np.ndarray] = {"input_proj": _glorot(rng, F, d)}
    for t in range(layer_count):
        params[f"layer{t}.self"] = _glorot(rng, F, F)
        params[f"layer{t}.bias"] = np.zeros(F)
        for lab in kind.labels:
            params[f"layer{t}.label.{lab}"] = _glorot(rng, F, F)
    params["head.w1"] = _glorot(rng, F, F)
    params["head.b1"] = np.zeros(F)
    params["head.w2"] = _glorot(rng, 1, F)[0]
    params["head.b2"] = np.zeros(1)
    return MpnnModel(kind, layer_count, hidden_dim, aggregator, readout, seed, params)


# ── graph packing ─────────────────────────────────────────────────────────

@dataclass
class PackedBatch:
    """Disjoint union of graphs sharing one node-feature matrix."""

    kind: GraphKind
    features: np.ndarray                       # (N, d)
    adjacency: dict[str, tuple[np.ndarray, np.ndarray]]   # label -> (dst, src)
    segments: np.ndarray                       # (N,) graph index per node
    num_graphs: int
    node_counts: np.ndarray                    # (num_graphs,)


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
    return PackedBatch(kind, features, adjacency, segments, len(graphs), counts)


# ── forward / backward ────────────────────────────────────────────────────

def _scatter_add(index, values, n):
    """(n, F) rows out[i] = sum of values[e] over index[e] == i, in order.

    The flat index is rebuilt per call: keeping (E*F)-sized index arrays
    across layers costs more memory than rebuilding them costs time.
    """
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=n * width).reshape(n, width)


def _segment_max(index, values, n):
    """(n, F) rows out[i] = max of values[e] over index[e] == i; zero if none.
    `index` must be non-empty."""
    out = np.zeros((n, values.shape[1]))
    order = np.argsort(index, kind="stable")
    keys = index[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    out[keys[starts]] = np.maximum.reduceat(values[order], starts, axis=0)
    return out


def _aggregate(messages, dst, src, n, aggregator, counts):
    """Aggregate per-edge messages messages[src] into destination rows;
    max also returns its result as the backward cache."""
    if len(dst) == 0:
        return np.zeros((n, messages.shape[1])), None
    if aggregator == "max":
        out = _segment_max(dst, messages[src], n)
        return out, out
    out = _scatter_add(dst, messages[src], n)
    if aggregator == "mean":
        out /= np.maximum(counts, 1)[:, None]
    return out, None


def _aggregate_backward(dout, messages, agg_out, dst, src, n, aggregator, counts):
    """Gradient wrt per-node messages, an (n, F) array. Only max reads
    `messages` and `agg_out`."""
    if aggregator == "sum":
        return _scatter_add(src, dout[dst], n)
    if aggregator == "mean":
        return _scatter_add(src, (dout / np.maximum(counts, 1)[:, None])[dst], n)
    # max: route to attaining edges, splitting equally among ties
    attain = (messages[src] == agg_out[dst]).astype(np.float64)
    tie_count = _scatter_add(dst, attain, n)
    attain /= np.maximum(tie_count[dst], 1.0)      # in place: E*F temporaries set peak memory
    attain *= dout[dst]
    return _scatter_add(src, attain, n)


def _segment_reduce(h, segments, num_graphs, counts, readout):
    if readout == "max":
        out = _segment_max(segments, h, num_graphs)
        return out, out
    out = _scatter_add(segments, h, num_graphs)
    if readout == "mean":
        out /= counts[:, None]
    return out, None


def _segment_reduce_backward(dout, h, reduced, segments, counts, readout):
    if readout == "sum":
        return dout[segments]
    if readout == "mean":
        return dout[segments] / counts[segments, None]
    attain = (h == reduced[segments]).astype(np.float64)
    tie_count = _scatter_add(segments, attain, len(reduced))
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
    n = batch.features.shape[0]
    counts = {lab: np.bincount(batch.adjacency[lab][0], minlength=n)
              for lab in model.labels}

    h = batch.features @ p["input_proj"].T
    layer_cache = []
    for t in range(model.layer_count):
        z = h @ p[f"layer{t}.self"].T + p[f"layer{t}.bias"]
        agg_cache = {}
        for lab in model.labels:
            dst, src = batch.adjacency[lab]
            messages = h @ p[f"layer{t}.label.{lab}"].T
            agg, max_out = _aggregate(messages, dst, src, n, model.aggregator, counts[lab])
            z += agg
            agg_cache[lab] = max_out
        mask = z > 0
        new_h = np.where(mask, z, 0.0)
        if need_cache:
            layer_cache.append((h, mask, agg_cache))
        h = new_h

    g, readout_max = _segment_reduce(h, batch.segments, batch.num_graphs,
                                     batch.node_counts, model.readout)
    z1 = g @ p["head.w1"].T + p["head.b1"]
    a1 = np.where(z1 > 0, z1, 0.0)
    out = a1 @ p["head.w2"] + p["head.b2"][0]
    if not need_cache:
        return out, None
    cache = {"layers": layer_cache, "final_h": h, "g": g, "z1": z1, "a1": a1,
             "readout_max": readout_max, "counts": counts}
    return out, cache


def backward_packed(model: MpnnModel, batch: PackedBatch, cache, dout: np.ndarray):
    """Gradients of sum_b dout[b] * output[b] wrt every parameter."""
    p = model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    a1, z1, g = cache["a1"], cache["z1"], cache["g"]
    counts = cache["counts"]

    grads["head.b2"][0] = dout.sum()
    grads["head.w2"][:] = a1.T @ dout
    da1 = np.outer(dout, p["head.w2"])
    dz1 = np.where(z1 > 0, da1, 0.0)
    grads["head.b1"][:] = dz1.sum(axis=0)
    grads["head.w1"][:] = dz1.T @ g
    dg = dz1 @ p["head.w1"]

    dh = _segment_reduce_backward(dg, cache["final_h"], cache["readout_max"],
                                  batch.segments, batch.node_counts, model.readout)

    for t in reversed(range(model.layer_count)):
        h_in, mask, agg_cache = cache["layers"][t]
        dz = np.where(mask, dh, 0.0)
        grads[f"layer{t}.bias"][:] = dz.sum(axis=0)
        grads[f"layer{t}.self"][:] = dz.T @ h_in
        dh = dz @ p[f"layer{t}.self"]
        for lab in model.labels:
            dst, src = batch.adjacency[lab]
            if len(dst) == 0:
                continue
            w = p[f"layer{t}.label.{lab}"]
            messages = h_in @ w.T if model.aggregator == "max" else None
            dM = _aggregate_backward(dz, messages, agg_cache[lab], dst, src,
                                     h_in.shape[0], model.aggregator, counts[lab])
            grads[f"layer{t}.label.{lab}"][:] = dM.T @ h_in
            dh += dM @ w

    grads["input_proj"][:] = dh.T @ batch.features
    return grads


def forward(model: MpnnModel, graph: LearningGraph) -> float:
    """Scalar output for one graph; deterministic."""
    out, _ = forward_packed(model, pack_graphs([graph]))
    return float(out[0])


def forward_batch(model: MpnnModel, graphs: list[LearningGraph]) -> np.ndarray:
    """Pointwise equal to mapping forward over the list."""
    if not graphs:
        return np.zeros(0)
    out, _ = forward_packed(model, pack_graphs(graphs))
    return out
