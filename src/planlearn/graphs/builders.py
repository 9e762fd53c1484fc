"""Builders for the three learning-graph encodings.

Each encoding has one builder that binds a task once and returns a function
from a state to its graph; `state_graphs` picks the builder for a kind and
is the one path by which training, model search and `planlearn graph` turn
states into graphs, always from the states of a propositional task (the
finite-domain builder reads value tuples, which `state_graphs` maps each
state to). The state plays the role of the initial state in the
node features, so a search can re-encode every visited state as a fresh
subtask. The propositional and finite-domain structures do not depend on
the state: their builders build one template per task and give each state
a copy of its feature matrix with the state column set. The lifted builder
binds a template too, the schema subgraph, which it builds and checks once
per task; each state appends its instance nodes and `gamma` edges to it, and
shares the template's adjacency and aggregation plans of the other labels.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from ..task.ground import GroundingMap, ground_state_atoms
from ..task.model import (Atom, FdrTask, LiftedTask, StripsTask, binary_fdr_view,
                          strips_state_to_fdr)
from .core import LearningGraph, flg_kind, llg_kind, slg_kind
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


def state_graphs(kind: str, task: StripsTask, lifted: LiftedTask | None = None,
                 gmap: GroundingMap | None = None, encoder: IndexEncoder | None = None,
                 fdr: FdrTask | None = None) -> Callable[[frozenset[int]], LearningGraph]:
    """The function from a state of the ground task, a frozenset of
    proposition ids as `task.decode` returns it, to its graph in one encoding.

    slg encodes `task`. flg encodes the value tuple of each state in `fdr`
    when `task` is `strips_view(fdr)`, as for SAS input, and in
    `binary_fdr_view(task)`, whose variable p is bit p, otherwise. llg
    encodes the atoms of each state in the lifted task `task` came from,
    through its grounding map, with `llg_graphs` and the given index encoder
    (default `IndexEncoder()`)."""
    if not isinstance(task, StripsTask):
        raise TypeError("state graphs are built for the states of a propositional task")
    if kind == "slg":
        return slg_graphs(task)
    if kind == "flg":
        if fdr is None:
            fdr, n = binary_fdr_view(task), len(task.propositions)

            def to_fdr(state: frozenset[int]) -> tuple[int, ...]:
                values = tuple([int(p in state) for p in range(n)])
                if sum(values) != len(state):      # some fact is not a task proposition
                    raise ValueError("state mentions propositions outside the task")
                return values
        elif len(task.propositions) != sum(len(var.values) for var in fdr.variables):
            raise ValueError("the propositional task is not the view of the finite-domain one")
        else:
            to_fdr = partial(strips_state_to_fdr, fdr)
        graph_of = flg_graphs(fdr)
        return lambda state: graph_of(to_fdr(state))
    if kind == "llg":
        if lifted is None or gmap is None:
            raise TypeError("llg encodes a ground task through its lifted task "
                            "and grounding map")
        graph_of = llg_graphs(lifted, encoder)
        return lambda state: graph_of(ground_state_atoms(gmap, state))
    raise ValueError(f"unknown graph kind {kind!r}")


def build_slg(task: StripsTask, state: frozenset[int]) -> LearningGraph:
    """The propositional graph of one state (see `slg_graphs`)."""
    return slg_graphs(task)(state)


def llg_graphs(task: LiftedTask, encoder: IndexEncoder | None = None
               ) -> Callable[[frozenset[Atom]], LearningGraph]:
    """Lifted encoding: a schema subgraph wiring predicates through
    per-atom relay and argument-index nodes into schemas, plus an instance
    subgraph for the atoms of state and goal. Argument-index nodes carry
    the injective index embedding; everything else a zero index part. A
    state atom with an undeclared predicate or object raises KeyError."""
    if encoder is None:
        encoder = IndexEncoder()
    T = encoder.dim

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

    features = np.zeros((len(names), 5 + T), dtype=np.float64)
    for node, bits in enumerate(base_bits):
        features[node, :5] = bits
        if pe_index[node] is not None:
            features[node, 5:] = encoder.pe(pe_index[node])
    template = LearningGraph(llg_kind(T), features, edges, tuple(names),
                             color_keys=tuple(b + (i,) for b, i in zip(base_bits, pe_index)),
                             seed=encoder.seed)
    first = template.num_nodes
    goal = task.goal

    def graph(state: frozenset[Atom]) -> LearningGraph:
        # The instance subgraph: the same nodes, bits and color keys that
        # new_node would give, with the feature rows set per column.
        names, keys, edges = [], [], []
        in_state, in_goal, args, indexes = [], [], [], []
        for atom in sorted(state | goal, key=str):
            atom_node, name = first + len(names), str(atom)
            flags = (float(atom in state), float(atom in goal))
            names.append(name)
            keys.append((0, 0, 0, *flags, None))
            if flags[0]:
                in_state.append(atom_node)
            if flags[1]:
                in_goal.append(atom_node)
            edges.append((atom_node, pred_node[atom.predicate], "gamma"))
            for i, obj in enumerate(atom.args, start=1):
                arg = first + len(names)
                names.append(f"{name}:{i}")
                keys.append((0, 0, 0, 0, 0, i))
                args.append(arg)
                indexes.append(i)
                edges.append((atom_node, arg, "gamma"))
                edges.append((arg, obj_node[obj], "gamma"))
        rows = np.zeros((first + len(names), 5 + T), dtype=np.float64)
        rows[:first] = template.features
        rows[in_state, 3] = 1.0
        rows[in_goal, 4] = 1.0
        if args:
            rows[args, 5:] = [encoder.pe(i) for i in indexes]
        return template.extended(rows, edges, template.node_names + tuple(names),
                                 template.color_keys + tuple(keys))

    return graph


def build_llg(task: LiftedTask, state: frozenset[Atom],
              encoder: IndexEncoder | None = None) -> LearningGraph:
    """The lifted graph of one state (see `llg_graphs`)."""
    return llg_graphs(task, encoder)(state)
