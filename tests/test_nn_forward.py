import numpy as np
import pytest

from planlearn.bench.domains import DOMAIN_TEXT, gripper_problem
from planlearn.errors import DimensionMismatch
from planlearn.expressiveness.pairs import grounded_twin_pair, lifted_twin_pair
from planlearn.graphs import (
    IndexEncoder,
    LearningGraph,
    build_slg,
    flg_kind,
    llg_kind,
    slg_kind,
    state_graphs,
)
from planlearn.expressiveness.report import _views
from planlearn.nn import (
    backward_packed,
    forward,
    forward_batch,
    forward_models,
    forward_packed,
    init_model,
    pack_graphs,
)
from planlearn.nn.model import AGGREGATORS, READOUTS
from planlearn.seeding import rng_for
from planlearn.task import ground, parse_pddl

from helpers import reachable_states, reference_forward_packed


def random_graph(kind, n_nodes, n_edges, seed):
    rng = rng_for(seed, "random-graph")
    features = rng.random((n_nodes, kind.dim))
    edges = []
    used = set()
    labels = kind.labels
    while len(edges) < n_edges:
        u, v = int(rng.integers(n_nodes)), int(rng.integers(n_nodes))
        lab = labels[int(rng.integers(len(labels)))]
        key = (min(u, v), max(u, v), lab)
        if u == v or key in used:
            continue
        used.add(key)
        edges.append((u, v, lab))
    return LearningGraph(kind, features, edges)


def test_zero_edge_graph_matches_closed_form():
    """No neighbors: every layer reduces to relu(W_self h + bias)."""
    kind = slg_kind()
    g = LearningGraph(kind, np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), [])
    for agg in ("mean", "max", "sum"):
        m = init_model(kind, layer_count=3, hidden_dim=7, aggregator=agg, seed=5)
        h = g.features @ m.params["input_proj"].T
        for t in range(3):
            z = h @ m.params[f"layer{t}.self"].T + m.params[f"layer{t}.bias"]
            h = np.maximum(z, 0.0)
        pooled = h.sum(axis=0)
        z1 = np.maximum(m.params["head.w1"] @ pooled + m.params["head.b1"], 0.0)
        expect = float(m.params["head.w2"] @ z1 + m.params["head.b2"][0])
        assert forward(m, g) == pytest.approx(expect, abs=1e-12)


def test_all_zero_parameters_constant_output(gripper_ground):
    task, _ = gripper_ground
    m = init_model(slg_kind(), layer_count=2, hidden_dim=4, seed=0)
    for p in m.params.values():
        p[:] = 0.0
    g1 = build_slg(task, task.init)
    g2 = build_slg(task, frozenset())
    assert forward(m, g1) == forward(m, g2) == 0.0


def test_golden_forward_regression(gripper_ground):
    task, _ = gripper_ground
    model = init_model(slg_kind(), layer_count=8, hidden_dim=64,
                       aggregator="mean", readout="sum", seed=2024)
    value = forward(model, build_slg(task, task.init))
    assert value == pytest.approx(62.68366424786051, rel=1e-12)


def test_batch_of_one_equals_forward(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    m = init_model(slg_kind(), layer_count=4, hidden_dim=16, seed=1)
    assert forward_batch(m, [g])[0] == pytest.approx(forward(m, g), abs=1e-6)


def _forward_several(model, graphs):
    out, _ = forward_packed(model, pack_graphs(graphs))
    return out


def test_batch_identical_graphs(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    m = init_model(slg_kind(), layer_count=4, hidden_dim=16, seed=1)
    out = _forward_several(m, [g] * 5)
    assert np.allclose(out, out[0])


def test_batch_permutation_equivariant(gripper_ground):
    task, _ = gripper_ground
    s0 = task.encode(task.init)
    states = [task.init] + [task.decode(task.apply(s0, a))
                            for a, in [(i,) for i in range(len(task.actions))]
                            if task.apply(s0, a) is not None]
    graphs = [build_slg(task, s) for s in states]
    m = init_model(slg_kind(), layer_count=4, hidden_dim=16, seed=1)
    base = _forward_several(m, graphs)
    perm = list(reversed(range(len(graphs))))
    out = _forward_several(m, [graphs[i] for i in perm])
    assert np.allclose(out, base[perm])


def test_batch_pointwise_matches_map(gripper_ground):
    task, _ = gripper_ground
    states = {task.init}
    for a in range(len(task.actions)):
        nxt = task.apply(task.encode(task.init), a)
        if nxt is not None:
            states.add(task.decode(nxt))
    graphs = [build_slg(task, s) for s in sorted(states, key=sorted)]
    for agg in ("mean", "max", "sum"):
        m = init_model(slg_kind(), layer_count=4, hidden_dim=16, aggregator=agg, seed=7)
        batched = _forward_several(m, graphs)
        single = [forward(m, g) for g in graphs]
        assert np.allclose(batched, single, atol=1e-6)


def _state_graph_sets(kind):
    """Per task, the graphs of its first 16 reachable states: gripper 1-3,
    and the grounded twins (lifted twins for llg, which needs a lifted task)."""
    tasks = []
    for balls in (1, 2, 3):
        lifted = parse_pddl(DOMAIN_TEXT["gripper"], gripper_problem(balls))
        tasks.append((*ground(lifted), lifted))
    if kind == "llg":
        tasks += [(*ground(lifted), lifted) for lifted in lifted_twin_pair()]
    else:
        tasks += [(strips, None, None) for strips in grounded_twin_pair()]
    for strips, gmap, lifted in tasks:
        graph_of = state_graphs(kind, strips, lifted, gmap, IndexEncoder(4, seed=0))
        yield [graph_of(s) for s in reachable_states(strips)[:16]]


@pytest.mark.parametrize("kind", [slg_kind(), flg_kind(), llg_kind(4)], ids=lambda k: k.name)
@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_forward_batch_equals_forward_per_graph(kind, aggregator):
    """Search estimates are one forward per state: forward_batch is exactly,
    not just nearly, the map of forward, whatever the list holds."""
    m = init_model(kind, layer_count=4, hidden_dim=32, aggregator=aggregator, seed=7)
    for graphs in _state_graph_sets(kind.name):
        assert len(graphs) > 1
        assert np.array_equal(forward_batch(m, graphs), [forward(m, g) for g in graphs])


@pytest.mark.parametrize("aggregator", ["mean", "max"])
def test_permutation_invariance(aggregator):
    kind = llg_kind(4)
    g = random_graph(kind, 12, 20, seed=42)
    rng = rng_for(43, "perm")
    perm = rng.permutation(12)
    inv = np.argsort(perm)
    permuted = LearningGraph(kind, g.features[inv],
                             [(int(perm[u]), int(perm[v]), lab) for u, v, lab in g.edges])
    m = init_model(kind, layer_count=5, hidden_dim=12, aggregator=aggregator, seed=3)
    assert forward(m, g) == pytest.approx(forward(m, permuted), abs=1e-9)


def test_kind_mismatch_rejected(gripper_ground):
    task, _ = gripper_ground
    g = build_slg(task, task.init)
    m = init_model(flg_kind(), layer_count=2, hidden_dim=4, seed=0)
    with pytest.raises(DimensionMismatch):
        forward(m, g)


def test_mixed_kind_batch_rejected(gripper_ground, gripper_fdr):
    from helpers import build_flg
    task, _ = gripper_ground
    slg = build_slg(task, task.init)
    flg = build_flg(gripper_fdr, gripper_fdr.init)
    m = init_model(slg_kind(), layer_count=2, hidden_dim=4, seed=0)
    with pytest.raises(DimensionMismatch):
        pack_graphs([slg, flg])
    with pytest.raises(DimensionMismatch):
        forward_batch(m, [slg, flg])


def test_empty_neighborhood_contributes_zero():
    """A node with edges under one label only must see zero from the others;
    checked against a hand-computed single layer."""
    kind = slg_kind()
    features = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    g = LearningGraph(kind, features, [(0, 1, "pre")])
    m = init_model(kind, layer_count=1, hidden_dim=3, aggregator="max", seed=8)
    p = m.params
    h0 = features @ p["input_proj"].T
    msg = h0 @ p["layer0.label.pre"].T
    z = h0 @ p["layer0.self"].T + p["layer0.bias"]
    z[0] += msg[1]
    z[1] += msg[0]
    h1 = np.maximum(z, 0.0)
    pooled = h1.sum(axis=0)
    z1 = np.maximum(p["head.w1"] @ pooled + p["head.b1"], 0.0)
    expect = float(p["head.w2"] @ z1 + p["head.b2"][0])
    assert forward(m, g) == pytest.approx(expect, abs=1e-12)


# ── the one-model loop against its reference ───────────────────────────────

def _training_batches():
    """(kind name, batch): 16 gripper-4 states packed into one batch per
    encoding, the shape of a training batch."""
    lifted = parse_pddl(DOMAIN_TEXT["gripper"], gripper_problem(4))
    strips, gmap = ground(lifted)
    states = reachable_states(strips)
    states = states[::len(states) // 16][:16]
    for kind in ("slg", "flg", "llg"):
        graph_of = state_graphs(kind, strips, lifted, gmap, IndexEncoder(4, seed=0))
        yield kind, pack_graphs([graph_of(s) for s in states])


TRAINING_BATCHES = list(_training_batches())


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("readout", READOUTS)
@pytest.mark.parametrize("aggregator", AGGREGATORS)
@pytest.mark.parametrize("batch", [batch for _, batch in TRAINING_BATCHES],
                         ids=[kind for kind, _ in TRAINING_BATCHES])
def test_forward_packed_equals_the_one_model_reference(batch, aggregator, readout):
    """forward_packed, a group of one model in the shared layer loop, gives
    the outputs of the one-model loop it replaced bit for bit, with and
    without the cache, and backward_packed reads the same gradients from
    either loop's cache."""
    assert batch.num_graphs == 16
    model = init_model(batch.kind, 8, 64, aggregator, readout, seed=11)
    dout = rng_for(11, "dout").normal(size=16)
    out, cache = forward_packed(model, batch)
    want, _ = reference_forward_packed(model, batch)
    assert cache is None and np.array_equal(_bits(out), _bits(want))
    out, cache = forward_packed(model, batch, need_cache=True)
    want, want_cache = reference_forward_packed(model, batch, need_cache=True)
    assert np.array_equal(_bits(out), _bits(want))
    grads = backward_packed(model, batch, cache, dout)
    want_grads = backward_packed(model, batch, want_cache, dout)
    assert grads.keys() == want_grads.keys() == model.params.keys()
    for name, grad in grads.items():
        assert np.array_equal(_bits(grad), _bits(want_grads[name])), name


# ── several models on one graph ───────────────────────────────────────────

def _model_graph_sets():
    """(id, graphs): the grounded twins' three encodings, as the theory run
    builds them, and a gripper-4 search state's slg and llg, the latter an
    `extended` copy of its task's schema subgraph."""
    twins = [_views(task, seed=0) for task in grounded_twin_pair()]
    sets = [(f"twins-{kind}", [views[kind] for views in twins]) for kind in ("slg", "flg", "llg")]
    lifted = parse_pddl(DOMAIN_TEXT["gripper"], gripper_problem(4))
    strips, gmap = ground(lifted)
    state = reachable_states(strips)[9]
    for kind in ("slg", "llg"):
        graph_of = state_graphs(kind, strips, lifted, gmap, IndexEncoder(4, seed=0))
        sets.append((f"gripper4-{kind}", [graph_of(state)]))
    return sets


MODEL_GRAPH_SETS = _model_graph_sets()


@pytest.mark.parametrize("readout", READOUTS)
@pytest.mark.parametrize("aggregator", AGGREGATORS)
@pytest.mark.parametrize("graphs", [graphs for _, graphs in MODEL_GRAPH_SETS],
                         ids=[name for name, _ in MODEL_GRAPH_SETS])
def test_forward_models_equals_forward(graphs, aggregator, readout):
    """Every entry of forward_models is forward's value bit for bit, for any
    width, layer count and group size."""
    kind = graphs[0].kind
    for layers, width in ((4, 16), (8, 64), (2, 7)):
        for count in (1, 3, 7):
            models = [init_model(kind, layers, width, aggregator, readout, seed=100 * count + i)
                      for i in range(count)]
            got = forward_models(models, graphs)
            want = np.array([[forward(m, g) for m in models] for g in graphs])
            assert got.shape == (len(graphs), count)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (layers, width, count)


def _group_of(**changes):
    """Two slg models, the second with `changes` to its architecture."""
    spec = {"kind": slg_kind(), "layer_count": 2, "hidden_dim": 4, "aggregator": "mean",
            "readout": "sum"}
    return [init_model(**spec, seed=0), init_model(**{**spec, **changes}, seed=1)]


@pytest.mark.parametrize("changes, error", [
    ({"kind": flg_kind()}, DimensionMismatch),
    ({"layer_count": 3}, DimensionMismatch),
    ({"hidden_dim": 5}, DimensionMismatch),
    ({"aggregator": "max"}, ValueError),
    ({"readout": "mean"}, ValueError),
], ids=["kind", "layers", "width", "aggregator", "readout"])
def test_forward_models_rejects_mixed_architectures(gripper_ground, changes, error):
    task, _ = gripper_ground
    with pytest.raises(error):
        forward_models(_group_of(**changes), [build_slg(task, task.init)])


def test_forward_models_rejects_an_empty_group_and_a_foreign_graph(gripper_ground):
    task, _ = gripper_ground
    graph = build_slg(task, task.init)
    with pytest.raises(ValueError):
        forward_models([], [graph])
    flg_models = [init_model(flg_kind(), 2, 4, seed=i) for i in range(2)]
    with pytest.raises(DimensionMismatch):
        forward_models(flg_models, [graph])


def test_forward_leaves_the_graph_arrays_unchanged():
    """A one-graph batch holds the graph's own feature and adjacency arrays,
    and neither forward nor forward_models writes to them."""
    for _, graphs in MODEL_GRAPH_SETS:
        graph = graphs[0]
        before = [graph.features.tobytes()] + [a.tobytes() for lab in graph.kind.labels
                                               for a in graph.adjacency(lab)]
        batch = pack_graphs([graph])
        assert batch.features is graph.features
        assert all(batch.adjacency[lab] is graph.adjacency(lab) for lab in graph.kind.labels)
        for aggregator in AGGREGATORS:
            for readout in READOUTS:
                models = [init_model(graph.kind, 2, 8, aggregator, readout, seed=i)
                          for i in range(3)]
                forward(models[0], graph)
                forward_models(models, [graph])
        after = [graph.features.tobytes()] + [a.tobytes() for lab in graph.kind.labels
                                              for a in graph.adjacency(lab)]
        assert after == before
