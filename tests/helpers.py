"""Task transformations, benchmark instances, state enumeration, blind
search, measurements, writers of suites and model files, readers of the
CLI's task and graph dumps, the finite-domain graph of one value tuple,
exact joint color refinement and reference implementations (successors,
FDR successor semantics, h+, graph builders, the network, its one-model
layer loop, the per-model twin gap) that only the tests need."""

import heapq
import itertools
import json
from collections import Counter, deque
from pathlib import Path

import numpy as np

from planlearn import bench
from planlearn.errors import BudgetExceeded, ParseError
from planlearn.expressiveness.wl import _refine, _transformed
from planlearn.graphs import GraphKind, IndexEncoder, LearningGraph, flg_kind, llg_kind, slg_kind
from planlearn.graphs.builders import flg_graphs
from planlearn.heuristics import DEFAULT_FACT_BUDGET, DEFAULT_STATE_CAP, INFINITY, HeuristicValue
from planlearn.nn import forward, init_model, model_to_json
from planlearn.nn import model as nn_model
from planlearn.search import ConstantHeuristic, SearchConfig, SearchResult, gbfs
from planlearn.seeding import derive_seed
from planlearn.task import Atom, FdrTask, LiftedTask, StripsAction, StripsTask, ground, parse_pddl
from planlearn.task.interchange import MAGIC, VERSION
from planlearn.task.model import initial_state, successors


def delete_relax(task: StripsTask) -> StripsTask:
    """The delete relaxation: same task with empty delete lists."""
    actions = tuple(
        type(a)(a.name, a.pre, a.add, frozenset(), a.cost) for a in task.actions)
    return StripsTask(task.propositions, actions, task.init, task.goal,
                      name=task.name + "+")


def bench_task(domain: str, size: int, copy: int = 0) -> StripsTask:
    """The ground task of a seeded benchmark instance."""
    text = bench.GENERATORS[domain](size, seed=derive_seed(0, f"{domain}-{size}-{copy}"))
    return ground(parse_pddl(bench.DOMAIN_TEXT[domain], text))[0]


def write_suite(suite: bench.Suite, root) -> Path:
    """Write the suite's files (`bench.suite_files`) under root."""
    root = Path(root)
    for rel, text in bench.suite_files(suite, root).items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def save_model(model, path) -> None:
    """Write the model file (`planlearn.nn.model_to_json`) to path."""
    Path(path).write_text(model_to_json(model))


def wl_equal(g1: LearningGraph, g2: LearningGraph) -> bool:
    """Indistinguishability under color refinement, refining the two graphs
    jointly with interned exact colors (no hashing): the collision
    cross-check of comparing `wl_refine` histograms."""
    c1, a1 = _transformed(g1)
    c2, a2 = _transformed(g2)
    offset = len(c1)
    colors = c1 + c2
    adjacency = a1 + [[v + offset for v in nbrs] for nbrs in a2]
    intern: dict = {}

    def combine(own, neighbors):
        key = (own, tuple(sorted(neighbors)))
        if key not in intern:
            intern[key] = len(intern)
        return intern[key]

    # Re-intern initial hashes so ids stay small.
    colors = [combine(c, []) for c in colors]
    colors, _ = _refine(colors, adjacency, combine)
    return Counter(colors[:offset]) == Counter(colors[offset:])


def load_strips(text: str) -> StripsTask:
    """The task a `task.strips` dump (`planlearn.task.dump_strips`) holds."""
    lines = text.splitlines()
    pos = 0

    def next_line(expected: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of dump", line=pos + 1, expected=expected)
        line = lines[pos]
        pos += 1
        return line

    header = next_line("header").split()
    if len(header) != 2 or header[0] != MAGIC:
        raise ParseError("not a task dump", line=1, expected=MAGIC)
    if header[1] != str(VERSION):
        raise ParseError(f"unsupported dump version {header[1]}", line=1)

    def keyword_count(keyword: str) -> int:
        parts = next_line(keyword).split()
        if len(parts) != 2 or parts[0] != keyword:
            raise ParseError(f"got '{' '.join(parts)}'", line=pos, expected=f"{keyword} <count>")
        try:
            return int(parts[1])
        except ValueError:
            raise ParseError("count must be an integer", line=pos) from None

    def id_list(keyword: str) -> frozenset[int]:
        parts = next_line(keyword).split()
        if not parts or parts[0] != keyword:
            raise ParseError(f"got '{' '.join(parts)}'", line=pos, expected=keyword)
        try:
            return frozenset(int(tok) for tok in parts[1:])
        except ValueError:
            raise ParseError("ids must be integers", line=pos) from None

    n_props = keyword_count("props")
    props = tuple(next_line("proposition name") for _ in range(n_props))
    n_actions = keyword_count("actions")
    actions = []
    for _ in range(n_actions):
        parts = next_line("action").split(maxsplit=2)
        if len(parts) < 3 or parts[0] != "action":
            raise ParseError("malformed action line", line=pos, expected="action <cost> <name>")
        try:
            cost = int(parts[1])
        except ValueError:
            raise ParseError("action cost must be an integer", line=pos) from None
        name = parts[2]
        actions.append(StripsAction(name, id_list("pre"), id_list("add"), id_list("del"), cost))
    init = id_list("init")
    goal = id_list("goal")
    return StripsTask(props, tuple(actions), init, goal)


def graph_from_json(text: str) -> LearningGraph:
    """The graph a `graph.json` dump (`planlearn.graphs.graph_to_json`) holds."""
    payload = json.loads(text)
    kind = GraphKind(payload["kind"], payload.get("T", 0))
    nodes = sorted(payload["nodes"], key=lambda n: n["id"])
    features = np.array([n["feature"] for n in nodes], dtype=np.float64)
    names = tuple(n.get("name", str(n["id"])) for n in nodes)
    edges = [(u, v, lab) for u, v, lab in payload["edges"]]
    return LearningGraph(kind, features, edges, names, seed=payload.get("seed", 0))


def reference_successors(task: StripsTask, state: int) -> list[tuple[int, int]]:
    """All (action_id, successor) pairs applicable in a packed state, in
    action order: one precondition-mask test per action, the slow reference
    for StripsTask.successors."""
    return [(aid, (state & keep) | add)
            for aid, pre, keep, add in task.masks.actions if state & pre == pre]


# The successor semantics of FDR tasks on value tuples, kept verbatim from
# the FdrTask methods that searched them before every search ran on the
# STRIPS view.

def reference_fdr_apply(task: FdrTask, state: tuple[int, ...],
                        action_id: int) -> tuple[int, ...] | None:
    """Successor state, or None when the action is inapplicable."""
    a = task.actions[action_id]
    for v, d in a.pre:
        if state[v] != d:
            return None
    new = list(state)
    for v, d in a.eff:
        new[v] = d
    return tuple(new)


def reference_fdr_is_goal(task: FdrTask, state: tuple[int, ...]) -> bool:
    return all(state[v] == d for v, d in task.goal)


def reference_fdr_successors(task: FdrTask,
                             state: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """All (action_id, successor) pairs applicable in state, in action order."""
    return [(aid, nxt) for aid in range(len(task.actions))
            if (nxt := reference_fdr_apply(task, state, aid)) is not None]


def reachable_states(task, state_cap: int = DEFAULT_STATE_CAP):
    """All states reachable from the initial state (breadth-first order):
    frozensets of proposition ids for a StripsTask, value tuples under the
    reference semantics above for an FdrTask."""
    if isinstance(task, FdrTask):
        start, successors_of, decode = task.init, reference_fdr_successors, lambda s: s
    else:
        start, successors_of, decode = initial_state(task), successors, task.decode
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for _, nxt in successors_of(task, s):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > state_cap:
                    raise BudgetExceeded(f"state cap {state_cap} exceeded enumerating states")
                order.append(nxt)
                queue.append(nxt)
    return [decode(s) for s in order]


def blind(task, config: SearchConfig | None = None) -> SearchResult:
    """Zero heuristic; FIFO tie-breaking makes this breadth-first search,
    so plan costs are optimal for unit-cost tasks."""
    return gbfs(task, ConstantHeuristic(0.0), config)


def reference_h_plus(task: StripsTask, state: frozenset[int] | None = None,
                     fact_budget: int = DEFAULT_FACT_BUDGET) -> HeuristicValue:
    """Optimal delete-relaxation cost, the slow reference for h_plus.

    Uniform-cost search over monotonically growing sets of achieved facts,
    restricted to facts backward-relevant to the goal. Exact; raises
    BudgetExceeded when more than fact_budget unreached relevant facts exist.
    Its search has no state cap.
    """
    if state is None:
        state = task.init
    missing_goal = frozenset(task.goal - state)
    if not missing_goal:
        return HeuristicValue(0)

    # Forward relaxed reachability.
    reached = set(state)
    frontier = True
    usable = []
    remaining = list(range(len(task.actions)))
    while frontier:
        frontier = False
        still = []
        for i in remaining:
            a = task.actions[i]
            if a.pre <= reached:
                usable.append(i)
                if not a.add <= reached:
                    reached |= a.add
                    frontier = True
            else:
                still.append(i)
        remaining = still
    if not missing_goal <= reached:
        return HeuristicValue(INFINITY)

    # Backward relevance: goal facts, their achievers' preconditions, and so on.
    relevant: set[int] = set()
    agenda = [p for p in missing_goal]
    while agenda:
        p = agenda.pop()
        if p in relevant or p in state:
            continue
        relevant.add(p)
        for i in usable:
            a = task.actions[i]
            if p in a.add:
                agenda.extend(q for q in a.pre if q not in state and q not in relevant)
    if len(relevant) > fact_budget:
        raise BudgetExceeded(
            f"{len(relevant)} unreached relevant facts exceed budget {fact_budget}")

    rel_actions = [task.actions[i] for i in usable
                   if task.actions[i].add & relevant]
    rel_actions.sort(key=lambda a: a.cost)
    start = frozenset()
    dist: dict[frozenset[int], float] = {start: 0}
    counter = itertools.count()
    heap = [(0, next(counter), start)]
    while heap:
        d, _, achieved = heapq.heappop(heap)
        if d > dist[achieved]:
            continue
        if missing_goal <= achieved:
            return HeuristicValue(d)
        have = state | achieved
        for a in rel_actions:
            if not a.pre <= have:
                continue
            gain = (a.add & relevant) - achieved
            if not gain:
                continue
            nxt = achieved | gain
            nd = d + a.cost
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    return HeuristicValue(INFINITY)


def min_pairwise_distance(encoder: IndexEncoder, upto: int) -> float:
    """Smallest distance between the index embeddings of 1..upto."""
    vecs = np.stack([encoder.pe(i) for i in range(1, upto + 1)])
    best = np.inf
    for i in range(len(vecs)):
        d = np.linalg.norm(vecs[i + 1:] - vecs[i], axis=1)
        if len(d):
            best = min(best, float(d.min()))
    return best


# The full per-state builders that the template builders in
# planlearn.graphs.builders replaced, kept verbatim as the reference.

def reference_slg(task: StripsTask, state: frozenset[int]) -> LearningGraph:
    """Propositional encoding: one node per action and proposition, one
    labeled edge per precondition/add/delete membership."""
    if not state <= frozenset(range(len(task.propositions))):
        raise ValueError("state mentions propositions outside the task")
    n_a = len(task.actions)
    n_p = len(task.propositions)
    features = np.zeros((n_a + n_p, 3), dtype=np.float64)
    names = [a.name for a in task.actions] + list(task.propositions)
    for p in range(n_p):
        features[n_a + p, 0] = 1.0
        if p in state:
            features[n_a + p, 1] = 1.0
        if p in task.goal:
            features[n_a + p, 2] = 1.0
    edges = []
    for i, a in enumerate(task.actions):
        for label, props in (("pre", a.pre), ("add", a.add), ("del", a.dele)):
            for p in sorted(props):
                edges.append((i, n_a + p, label))
    return LearningGraph(slg_kind(), features, edges, tuple(names))


def build_flg(task: FdrTask, state: tuple[int, ...]) -> LearningGraph:
    """The finite-domain graph of one value tuple, through the template
    builder that `state_graphs("flg", ...)` binds (see `flg_graphs`)."""
    return flg_graphs(task)(state)


def reference_flg(task: FdrTask, state: tuple[int, ...]) -> LearningGraph:
    """Finite-domain encoding: variable, value and action nodes; values link
    to their variable and to the actions that require or set them."""
    if len(state) != len(task.variables):
        raise ValueError("state must assign every variable")
    n_v = len(task.variables)
    offsets = task.value_offsets
    value_node = {(v, d): n_v + offsets[v] + d
                  for v, var in enumerate(task.variables) for d in range(len(var.values))}
    names = [v.name for v in task.variables]
    names.extend(f"{var.name}={val}" for var in task.variables for val in var.values)
    action_base = n_v + len(value_node)
    names.extend(a.name for a in task.actions)
    total = action_base + len(task.actions)

    goal = dict(task.goal)
    features = np.zeros((total, 5), dtype=np.float64)
    features[:n_v, 0] = 1.0
    features[action_base:, 1] = 1.0
    for (v, d), node in value_node.items():
        features[node, 2] = 1.0
        if state[v] == d:
            features[node, 3] = 1.0
        if goal.get(v) == d:
            features[node, 4] = 1.0

    edges = []
    for v, var in enumerate(task.variables):
        for d in range(len(var.values)):
            edges.append((v, value_node[(v, d)], "varval"))
    for i, a in enumerate(task.actions):
        node = action_base + i
        for v, d in a.pre:
            edges.append((value_node[(v, d)], node, "pre"))
        for v, d in a.eff:
            edges.append((value_node[(v, d)], node, "eff"))
    return LearningGraph(flg_kind(), features, edges, tuple(names))


def reference_llg(task: LiftedTask, state: frozenset[Atom],
                  encoder: IndexEncoder | None = None) -> LearningGraph:
    """Lifted encoding: a schema subgraph wiring predicates through
    per-atom relay and argument-index nodes into schemas, plus an instance
    subgraph for the atoms of state and goal. Argument-index nodes carry
    the injective index embedding; everything else a zero index part."""
    if encoder is None:
        encoder = IndexEncoder()
    T = encoder.dim
    kind: GraphKind = llg_kind(T)

    names: list[str] = []
    base_bits: list[tuple[float, float, float, float, float]] = []
    pe_index: list[int | None] = []

    def new_node(name, bits, index=None) -> int:
        names.append(name)
        base_bits.append(bits)
        pe_index.append(index)
        return len(names) - 1

    pred_node = {p.name: new_node(p.name, (1, 0, 0, 0, 0)) for p in task.predicates}
    obj_node = {o: new_node(o, (0, 1, 0, 0, 0)) for o in task.objects}

    edges: list[tuple[int, int, str]] = []
    for o in task.objects:
        for p in task.predicates:
            edges.append((obj_node[o], pred_node[p.name], "nu"))

    for schema in task.schemas:
        a_node = new_node(schema.name, (0, 0, 1, 0, 0))
        var_node = {}
        for param in schema.params:
            var_node[param] = new_node(f"{schema.name}:{param}", (0, 0, 0, 0, 0))
            edges.append((a_node, var_node[param], "nu"))
        for f, atoms in (("pre", schema.pre), ("add", schema.add), ("del", schema.dele)):
            for atom in sorted(atoms, key=str):
                relay = new_node(f"{schema.name}:{f}:{atom}", (0, 0, 0, 0, 0))
                edges.append((pred_node[atom.predicate], relay, f))
                if not atom.args:
                    edges.append((relay, a_node, f))
                    continue
                for i, term in enumerate(atom.args, start=1):
                    arg = new_node(f"{schema.name}:{f}:{atom}:{i}", (0, 0, 0, 0, 0), index=i)
                    edges.append((relay, arg, f))
                    target = var_node.get(term)
                    if target is None:
                        target = obj_node[term]  # schema body mentions a constant
                    edges.append((arg, target, f))

    for atom in sorted(state | task.goal, key=str):
        bits = (0, 0, 0, float(atom in state), float(atom in task.goal))
        atom_node = new_node(str(atom), bits)
        edges.append((atom_node, pred_node[atom.predicate], "gamma"))
        for i, obj in enumerate(atom.args, start=1):
            arg = new_node(f"{atom}:{i}", (0, 0, 0, 0, 0), index=i)
            edges.append((atom_node, arg, "gamma"))
            edges.append((arg, obj_node[obj], "gamma"))

    n = len(names)
    features = np.zeros((n, 5 + T), dtype=np.float64)
    for node in range(n):
        features[node, :5] = base_bits[node]
        if pe_index[node] is not None:
            features[node, 5:] = encoder.pe(pe_index[node])
    color_keys = tuple(
        base_bits[node] + (pe_index[node],) for node in range(n))
    return LearningGraph(kind, features, edges, tuple(names),
                         color_keys=color_keys, seed=encoder.seed)


# The message-passing network written with np.add.at and np.maximum.at, the
# slow oracle for planlearn.nn.model. It packs the graphs itself from their
# edge lists and scatters the backward into sources, so it shares no index,
# plan or packing code with the model.

def _reference_pack(graphs: list[LearningGraph]):
    """(features, segments, node counts, label -> (dst, src)) of the batch."""
    counts = np.array([g.num_nodes for g in graphs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    edges = {lab: ([], []) for lab in graphs[0].kind.labels}
    for g, off in zip(graphs, offsets):
        for u, v, lab in g.edges:
            dst, src = edges[lab]
            dst += [u + off, v + off]
            src += [v + off, u + off]
    edges = {lab: (np.array(dst, dtype=np.int64), np.array(src, dtype=np.int64))
             for lab, (dst, src) in edges.items()}
    features = np.concatenate([g.features for g in graphs], axis=0)
    segments = np.repeat(np.arange(len(graphs)), counts)
    return features, segments, counts, edges


def reference_aggregate(messages, dst, src, aggregator):
    n = messages.shape[0]
    counts = np.bincount(dst, minlength=n)
    if aggregator == "max":
        out = np.full(messages.shape, -np.inf)
        np.maximum.at(out, dst, messages[src])
        out[counts == 0] = 0.0
        return out
    out = np.zeros(messages.shape)
    np.add.at(out, dst, messages[src])
    if aggregator == "mean":
        nz = counts > 0
        out[nz] /= counts[nz, None]
    return out


def reference_aggregate_backward(dout, messages, agg_out, dst, src, aggregator):
    n = dout.shape[0]
    dM = np.zeros(dout.shape)
    if aggregator == "sum":
        np.add.at(dM, src, dout[dst])
    elif aggregator == "mean":
        np.add.at(dM, src, (dout / np.maximum(np.bincount(dst, minlength=n), 1)[:, None])[dst])
    else:
        attain = (messages[src] == agg_out[dst]).astype(np.float64)
        tie_count = np.zeros(dout.shape)
        np.add.at(tie_count, dst, attain)
        np.add.at(dM, src, dout[dst] * (attain / np.maximum(tie_count[dst], 1.0)))
    return dM


def reference_forward_backward(model, graphs: list[LearningGraph], dout: np.ndarray):
    """(outputs, gradients of sum_b dout[b] * output[b]) for the batch."""
    p = model.params
    features, segments, counts, edges = _reference_pack(graphs)
    h = features @ p["input_proj"].T
    layers = []
    for t in range(model.layer_count):
        z = h @ p[f"layer{t}.self"].T + p[f"layer{t}.bias"]
        aggs = {}
        for lab in model.labels:
            dst, src = edges[lab]
            aggs[lab] = reference_aggregate(h @ p[f"layer{t}.label.{lab}"].T, dst, src,
                                            model.aggregator)
            z += aggs[lab]
        mask = z > 0
        layers.append((h, mask, aggs))
        h = np.where(mask, z, 0.0)

    g = np.zeros((len(graphs), h.shape[1]))
    if model.readout == "max":
        g[:] = -np.inf
        np.maximum.at(g, segments, h)
    else:
        np.add.at(g, segments, h)
        if model.readout == "mean":
            g /= counts[:, None]
    z1 = g @ p["head.w1"].T + p["head.b1"]
    a1 = np.where(z1 > 0, z1, 0.0)
    out = a1 @ p["head.w2"] + p["head.b2"][0]

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["head.b2"][0] = dout.sum()
    grads["head.w2"][:] = a1.T @ dout
    dz1 = np.where(z1 > 0, np.outer(dout, p["head.w2"]), 0.0)
    grads["head.b1"][:] = dz1.sum(axis=0)
    grads["head.w1"][:] = dz1.T @ g
    dg = dz1 @ p["head.w1"]
    if model.readout == "sum":
        dh = dg[segments]
    elif model.readout == "mean":
        dh = dg[segments] / counts[segments, None]
    else:
        attain = (h == g[segments]).astype(np.float64)
        tie_count = np.zeros_like(g)
        np.add.at(tie_count, segments, attain)
        dh = dg[segments] * attain / np.maximum(tie_count[segments], 1.0)

    for t in reversed(range(model.layer_count)):
        h_in, mask, aggs = layers[t]
        dz = np.where(mask, dh, 0.0)
        grads[f"layer{t}.bias"][:] = dz.sum(axis=0)
        grads[f"layer{t}.self"][:] = dz.T @ h_in
        dh = dz @ p[f"layer{t}.self"]
        for lab in model.labels:
            dst, src = edges[lab]
            if len(dst) == 0:
                continue
            w = p[f"layer{t}.label.{lab}"]
            dM = reference_aggregate_backward(dz, h_in @ w.T, aggs[lab], dst, src,
                                              model.aggregator)
            grads[f"layer{t}.label.{lab}"][:] = dM.T @ h_in
            dh += dM @ w
    grads["input_proj"][:] = dh.T @ features
    return out, grads


def reference_model_gap(pairs: list[tuple[LearningGraph, LearningGraph]], models: int,
                        seed: int, layer_count: int = 4, hidden_dim: int = 16) -> float:
    """The per-model loop that `expressiveness.report.model_gap` ran before it
    evaluated its models in groups, once per pair: largest |forward(G1) -
    forward(G2)| over the pairs and seeded random models, one model and two
    forwards at a time."""
    worst = 0.0
    for g1, g2 in pairs:
        for i in range(models):
            model = init_model(g1.kind, layer_count, hidden_dim, aggregator="mean",
                               readout="sum", seed=derive_seed(seed, f"gap-model-{i}"))
            worst = max(worst, abs(forward(model, g1) - forward(model, g2)))
    return worst


def reference_forward_packed(model, batch, need_cache: bool = False):
    """The one-model layer loop that `nn.model.forward_packed` ran before it
    became a group of one model in the loop `forward_models` runs: outputs
    for every graph in the batch and, with `need_cache`, the backward cache
    in the layout `backward_packed` reads."""
    nn_model._check_kind(model, batch.kind, batch.features.shape[1])
    p = model.params
    plan = nn_model._plan(batch, model.hidden_dim)

    h = batch.features @ p["input_proj"].T
    layer_cache = []
    for t in range(model.layer_count):
        z = h @ p[f"layer{t}.self"].T + p[f"layer{t}.bias"]
        attains = {}
        for lab, lp in plan.labels.items():
            agg, attains[lab] = nn_model._aggregate(h @ p[f"layer{t}.label.{lab}"].T, lp,
                                                    model.aggregator, need_cache)
            z += agg
        mask = z > 0
        new_h = np.where(mask, z, 0.0)
        if need_cache:
            layer_cache.append((h, mask, attains))
        h = new_h

    g, readout_max = nn_model._segment_reduce(h, plan, batch, model.readout)
    z1 = g @ p["head.w1"].T + p["head.b1"]
    a1 = np.where(z1 > 0, z1, 0.0)
    out = a1 @ p["head.w2"] + p["head.b2"][0]
    if not need_cache:
        return out, None
    cache = {"layers": layer_cache, "final_h": h, "g": g, "z1": z1, "a1": a1,
             "readout_max": readout_max, "plan": plan}
    return out, cache
