"""Builders for the three learning-graph encodings.

All builders are pure functions of (task, state, encoder); the state
argument plays the role of the initial state in the node features, so a
search can re-encode every visited state as a fresh subtask.
"""

from __future__ import annotations

import numpy as np

from ..task.model import Atom, FdrTask, LiftedTask, StripsTask
from .core import GraphKind, LearningGraph, flg_kind, llg_kind, slg_kind
from .encoder import IndexEncoder


def build_slg(task: StripsTask, state: frozenset[int]) -> LearningGraph:
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
