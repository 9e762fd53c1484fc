"""Task transformations, measurements and reference graph builders that
only the tests need."""

import numpy as np

from planlearn.graphs import IndexEncoder, LearningGraph, flg_kind, slg_kind
from planlearn.task import FdrTask, StripsTask


def delete_relax(task: StripsTask) -> StripsTask:
    """The delete relaxation: same task with empty delete lists."""
    actions = tuple(
        type(a)(a.name, a.pre, a.add, frozenset(), a.cost) for a in task.actions)
    return StripsTask(task.propositions, actions, task.init, task.goal,
                      name=task.name + "+")


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
