"""Builders for the three learning-graph encodings.

Each encoding has one builder that binds a task once and returns a function
from a state to its graph; `state_graphs` picks the builder for a kind and
is the one path by which training, model search and `planlearn graph` turn
states into graphs. The state plays the role of the initial state in the
node features, so a search can re-encode every visited state as a fresh
subtask. The propositional and finite-domain structures do not depend on
the state: their builders build one template per task and give each state
a copy of its feature matrix with the state column set. The lifted builder
rebuilds the instance subgraph for every state.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..task.ground import GroundingMap, ground_state_atoms
from ..task.model import Atom, FdrTask, LiftedTask, StripsTask, binary_fdr_view
from .core import GraphKind, LearningGraph, flg_kind, llg_kind, slg_kind
from .encoder import IndexEncoder


def slg_graphs(task: StripsTask) -> Callable[[frozenset[int]], LearningGraph]:
    """Propositional encoding: one node per action and proposition, one
    labeled edge per precondition/add/delete membership. Proposition rows
    carry (is proposition, in state, in goal)."""
    n_a = len(task.actions)
    props = frozenset(range(len(task.propositions)))
    features = np.zeros((n_a + len(props), 3), dtype=np.float64)
    features[n_a:, 0] = 1.0
    for p in task.goal:
        features[n_a + p, 2] = 1.0
    names = [a.name for a in task.actions] + list(task.propositions)
    edges = []
    for i, a in enumerate(task.actions):
        for label, ids in (("pre", a.pre), ("add", a.add), ("del", a.dele)):
            for p in sorted(ids):
                edges.append((i, n_a + p, label))
    template = LearningGraph(slg_kind(), features, edges, tuple(names))

    def graph(state: frozenset[int]) -> LearningGraph:
        if not state <= props:
            raise ValueError("state mentions propositions outside the task")
        rows = template.features.copy()
        for p in state:
            rows[n_a + p, 1] = 1.0
        return template.with_features(rows)

    return graph


def flg_graphs(task: FdrTask) -> Callable[[tuple[int, ...]], LearningGraph]:
    """Finite-domain encoding: variable, value and action nodes; values link
    to their variable and to the actions that require or set them. Rows
    carry (is variable, is action, is value, in state, in goal)."""
    n_v = len(task.variables)
    offsets = task.value_offsets
    sizes = [len(var.values) for var in task.variables]
    action_base = n_v + sum(sizes)
    names = [v.name for v in task.variables]
    names.extend(f"{var.name}={val}" for var in task.variables for val in var.values)
    names.extend(a.name for a in task.actions)

    def value_node(v: int, d: int) -> int:
        return n_v + offsets[v] + d

    features = np.zeros((len(names), 5), dtype=np.float64)
    features[:n_v, 0] = 1.0
    features[action_base:, 1] = 1.0
    features[n_v:action_base, 2] = 1.0
    for v, d in task.goal:
        features[value_node(v, d), 4] = 1.0
    edges = []
    for v, size in enumerate(sizes):
        for d in range(size):
            edges.append((v, value_node(v, d), "varval"))
    for i, a in enumerate(task.actions):
        for label, facts in (("pre", a.pre), ("eff", a.eff)):
            for v, d in facts:
                edges.append((value_node(v, d), action_base + i, label))
    template = LearningGraph(flg_kind(), features, edges, tuple(names))

    def graph(state: tuple[int, ...]) -> LearningGraph:
        if len(state) != n_v:
            raise ValueError("state must assign every variable")
        rows = template.features.copy()
        for v, d in enumerate(state):
            if not 0 <= d < sizes[v]:
                raise ValueError(f"state value {d} outside the domain of variable {v}")
            rows[value_node(v, d), 3] = 1.0
        return template.with_features(rows)

    return graph


def encoded_task(kind: str, strips: StripsTask, fdr: FdrTask | None = None):
    """The task an encoding reads: flg reads the SAS task, or else the binary
    view of the propositional one; every other encoding reads `strips`."""
    if kind != "flg":
        return strips
    return fdr if fdr is not None else binary_fdr_view(strips)


def state_graphs(kind: str, task, lifted: LiftedTask | None = None,
                 gmap: GroundingMap | None = None,
                 encoder: IndexEncoder | None = None) -> Callable[[object], LearningGraph]:
    """The per-state graph function of one encoding, bound to a task.

    slg takes a StripsTask and flg an FdrTask. llg takes the ground
    StripsTask with the lifted task it came from and its grounding map, and
    encodes states through `build_llg` with the given index encoder (default
    `IndexEncoder()`). The returned function maps a state as the task's
    `decode` returns it to that state's graph."""
    if kind == "slg":
        if not isinstance(task, StripsTask):
            raise TypeError("slg encodes propositional tasks")
        return slg_graphs(task)
    if kind == "flg":
        if not isinstance(task, FdrTask):
            raise TypeError("flg encodes finite-domain tasks")
        return flg_graphs(task)
    if kind == "llg":
        if lifted is None or gmap is None or not isinstance(task, StripsTask):
            raise TypeError("llg encodes a ground task through its lifted task "
                            "and grounding map")
        encoder = encoder or IndexEncoder()
        return lambda state: build_llg(lifted, ground_state_atoms(gmap, state), encoder)
    raise ValueError(f"unknown graph kind {kind!r}")


def build_slg(task: StripsTask, state: frozenset[int]) -> LearningGraph:
    """The propositional graph of one state (see `slg_graphs`)."""
    return slg_graphs(task)(state)


def build_flg(task: FdrTask, state: tuple[int, ...]) -> LearningGraph:
    """The finite-domain graph of one state (see `flg_graphs`)."""
    return flg_graphs(task)(state)


def build_llg(task: LiftedTask, state: frozenset[Atom],
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
