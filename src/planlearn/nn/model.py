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
so they live in an aggregation plan (`_Plan`). Per non-empty label a plan
holds an entry (`_LabelPlan`) with the flat destination index, the mean
divisor (in-degree, at least 1) and the rows without in-edges, which max
sets to zero; it also holds the readout's flat graph index. Every
aggregator leaves the rows past a label's highest destination at exact
zero, so an entry that a graph keeps stores the divisor and the isolated
mask only up to that row, and depends on the label's edges and F but not
on the node count. A graph's edge storage owns its entries, keyed by label
and F: every `with_features` copy shares all of them, so a search
evaluating one state per call builds one plan per slg/flg task and every
theory graph one per width, and every llg state graph, an `extended` copy
of its task's schema subgraph, shares the entries of the schema labels
(nu, pre, add, del) and builds only gamma's and its readout index. Only
training packs several graphs: such a batch builds its plan on entry to
`forward_packed`, hands it to `backward_packed` in the cache, and keeps
nothing. A training batch's plan serves one forward and one backward, and
the hold-out batch's would live for the whole run: keeping them on the
batch only held memory (peak RSS of the `train-slg` benchmark went from
58.6 to 62.3 MB, of `train-llg` from 71.2 to 75.5 MB, with no faster step).
Every other estimate is one forward of one graph, because a several-graph
forward differs from per-graph ones in the last digits (OpenBLAS picks its
kernel by row count), and search values must not depend on batching.

One layer loop, `_forward`, runs S models side by side on one batch.
Model s's hidden state lives in columns s*F to (s+1)*F of one (N, S*F)
array; each weight product is one gemm per model on its strided block
(`_per_model_linear`), and aggregation, ReLU and readout run once over the
whole width. Every gemm has exactly the row count, shapes and operands of
a one-model forward, so OpenBLAS picks the same kernel, and the rest is
column-wise, so each entry of `forward_models` (the theory checks) equals
`forward` bit for bit while the per-call overhead is paid once per group.
`forward_packed` (training and search) is a group of one model: the loop
gets the model's own parameters, and each product is plain x @ W.T.

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

    A one-graph batch holds the graph's own feature and adjacency arrays and,
    in `plans`, its plan-entry table; several graphs get copies offset into
    one node range and None, their plan living for one forward and backward."""

    kind: GraphKind
    features: np.ndarray                       # (N, d)
    adjacency: dict[str, tuple[np.ndarray, np.ndarray]]   # label -> (dst, src)
    segments: np.ndarray                       # (N,) graph index per node
    num_graphs: int
    node_counts: np.ndarray                    # (num_graphs,)
    plans: dict | None = None                  # label or _READOUT -> {width: entry}


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
    counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    segments = np.repeat(np.arange(len(graphs), dtype=np.int64), counts)
    if len(graphs) == 1:
        (g,) = graphs
        return PackedBatch(kind, g.features, {lab: g.adjacency(lab) for lab in kind.labels},
                           segments, 1, counts, g._plans)
    features = np.concatenate([g.features for g in graphs], axis=0)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
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


# ── aggregation plans ─────────────────────────────────────────────────────

class _LabelPlan(NamedTuple):
    dst: np.ndarray          # (E,) destination per edge; orientations adjacent
    src: np.ndarray          # (E,) source per edge
    flat: np.ndarray         # (E*F,) dst*F + column: the scatter index
    divisor: np.ndarray      # (M, 1) in-degree, at least 1, M above every dst
    isolated: np.ndarray     # (M,) rows below M with no in-edge


class _Plan(NamedTuple):
    labels: dict[str, _LabelPlan]   # non-empty labels, in kind order
    readout: np.ndarray             # (N*F,) graph*F + column


_READOUT = "readout"    # plan-table key of the readout index, which no label uses


def _flat_index(index, width):
    return (index[:, None] * width + np.arange(width)).ravel()


def _label_plan(lab, dst, src, width, rows) -> _LabelPlan | None:
    """The label's entry, None when it has no edges; its divisor and
    isolated mask cover at least `rows` rows."""
    if len(dst) == 0:
        return None
    if not (np.array_equal(dst[0::2], src[1::2]) and np.array_equal(dst[1::2], src[0::2])):
        raise ValueError(f"{lab!r} edges must list both orientations of each edge adjacently")
    degree = np.bincount(dst, minlength=rows)
    return _LabelPlan(dst, src, _flat_index(dst, width),
                      np.maximum(degree, 1).astype(np.float64)[:, None], degree == 0)


def _kept(batch: PackedBatch, key, width: int, build):
    """build(), kept under `key` and `width` in a one-graph batch's plan
    table; built afresh for several graphs."""
    if batch.plans is None:
        return build()
    by_width = batch.plans.setdefault(key, {})
    if width not in by_width:
        by_width[width] = build()
    return by_width[width]


def _plan(batch: PackedBatch, width: int) -> _Plan:
    """The batch's plan for hidden width `width`. A kept entry may serve
    graphs of other sizes, so it stops at its label's highest row; a fresh
    one covers every row, which keeps the mean backward's temporaries at the
    batch's full size: with fresh entries stopping at the highest row too,
    `train-llg` trained 1-4% fewer samples per second."""
    rows = 0 if batch.plans is not None else batch.features.shape[0]
    labels = {}
    for lab in batch.kind.labels:
        lp = _kept(batch, lab, width,
                   lambda: _label_plan(lab, *batch.adjacency[lab], width, rows))
        if lp is not None:
            labels[lab] = lp
    return _Plan(labels, _kept(batch, _READOUT, width,
                               lambda: _flat_index(batch.segments, width)))


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
    n, m = messages.shape[0], len(lp.divisor)
    if aggregator == "max":
        gathered = messages[lp.src]
        out = _scatter_max(lp.flat, gathered, n)
        attain = gathered == out[lp.dst] if need_mask else None
        out[:m][lp.isolated] = 0.0
        out[m:] = 0.0
        return out, attain
    out = _scatter_add(lp.flat, messages[lp.src], n)
    if aggregator == "mean":
        rows = out[:m]      # `out[:m] /= ...` would also copy the rows back
        rows /= lp.divisor
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
        return _scatter_add(lp.flat, (dout[:len(lp.divisor)] / lp.divisor)[lp.src], n)
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


def _per_model_linear(x, weights):
    """x times each model's weights transposed, models side by side.

    `weights` is one model's (F_out, F_in) matrix, giving plain x @ W.T, or
    a group's (S, F_out, F_in) stack. `x` is the (N, S*F_in) hidden state or
    an (N, F_in) input all models share; the (N, S*F_out) result comes from
    one gemm per model, a strided (N, F_in) block times a transposed matrix."""
    if weights.ndim == 2:
        return x @ weights.T
    count, f_out, f_in = weights.shape
    n = x.shape[0]
    if x.shape[1] != f_in:
        x = x.reshape(n, count, f_in).transpose(1, 0, 2)
    out = np.empty((n, count * f_out))
    np.matmul(x, weights.transpose(0, 2, 1), out=out.reshape(n, count, f_out).transpose(1, 0, 2))
    return out


def _forward(arch: MpnnModel, params: dict[str, np.ndarray], batch: PackedBatch,
             need_cache: bool):
    """(num_graphs, S) outputs and, with `need_cache`, the backward cache.
    `params` is one model's parameters (S = 1) or S models' stacks."""
    _check_kind(arch, batch.kind, batch.features.shape[1])
    width = arch.hidden_dim
    w2 = params["head.w2"].reshape(-1, width)
    b2 = params["head.b2"].reshape(-1)
    count = len(b2)
    plan = _plan(batch, count * width)

    h = _per_model_linear(batch.features, params["input_proj"])
    layer_cache = []
    for t in range(arch.layer_count):
        z = _per_model_linear(h, params[f"layer{t}.self"])
        z += params[f"layer{t}.bias"].ravel()
        attains = {}
        for lab, lp in plan.labels.items():
            agg, attains[lab] = _aggregate(_per_model_linear(h, params[f"layer{t}.label.{lab}"]),
                                           lp, arch.aggregator, need_cache)
            z += agg
        mask = z > 0
        if need_cache:
            layer_cache.append((h, mask, attains))
        h = np.where(mask, z, 0.0)

    g, readout_max = _segment_reduce(h, plan, batch, arch.readout)
    z1 = _per_model_linear(g, params["head.w1"])
    z1 += params["head.b1"].ravel()
    a1 = np.where(z1 > 0, z1, 0.0)
    out = np.empty((batch.num_graphs, count))
    for s in range(count):
        out[:, s] = a1[:, s * width:(s + 1) * width] @ w2[s] + b2[s]
    if not need_cache:
        return out, None
    cache = {"layers": layer_cache, "final_h": h, "g": g, "z1": z1, "a1": a1,
             "readout_max": readout_max, "plan": plan}
    return out, cache


def forward_packed(model: MpnnModel, batch: PackedBatch, need_cache: bool = False):
    """Outputs for every graph in the batch; optionally the backward cache."""
    out, cache = _forward(model, model.params, batch, need_cache)
    return out[:, 0], cache


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


# ── several models on one graph ───────────────────────────────────────────

def _common_architecture(models: list[MpnnModel]) -> MpnnModel:
    """The first model, after checking that every model shares its kind,
    layer count, hidden width, aggregator and readout."""
    if not models:
        raise ValueError("forward_models needs at least one model")
    first = models[0]
    for m in models[1:]:
        if (m.kind, m.layer_count, m.hidden_dim) != (first.kind, first.layer_count,
                                                      first.hidden_dim):
            raise DimensionMismatch(
                f"model {m.kind.name} with {m.layer_count}x{m.hidden_dim} in a group of "
                f"{first.kind.name} with {first.layer_count}x{first.hidden_dim}")
        if (m.aggregator, m.readout) != (first.aggregator, first.readout):
            raise ValueError(
                f"model with {m.aggregator}/{m.readout} in a group of "
                f"{first.aggregator}/{first.readout}")
    return first


def forward_models(models: list[MpnnModel], graphs: list[LearningGraph]) -> np.ndarray:
    """(len(graphs), len(models)) array of forward(models[s], graphs[i]),
    bit for bit, from one forward per graph that carries every model of
    one architecture."""
    first = _common_architecture(models)
    params = (first.params if len(models) == 1 else
              {name: np.stack([m.params[name] for m in models]) for name in first.params})
    out = np.empty((len(graphs), len(models)))
    for i, graph in enumerate(graphs):
        out[i] = _forward(first, params, pack_graphs([graph]), False)[0][0]
    return out
