"""Exact message-passing program computing the relaxation heuristics.

A hand-coded 2L+2 layer program over the propositional graph: an embedding
layer initializes per-node vectors [x0, x1, x2] (cost-so-far with the bound
standing in for infinity, goal flag, proposition flag), then L alternating
action/proposition updates mirror the dynamic program exactly, and the final
layer reads out x0*x1 over goal facts. The combination operator (max or sum)
applies where the dynamic program uses it: over preconditions and over goal
facts; the minimum over achievers is always emulated by a max of negated
values. Delete edges are ignored throughout. Unit-cost tasks only.
"""

from __future__ import annotations

import numpy as np

from ..graphs.core import LearningGraph
from ..heuristics.values import HeuristicValue, from_float

# f_emb: input feature triple -> initial [x0, x1, x2] with B standing for
# infinity (the ACTION/PROP constants below name the x2 flag).
_EMBED = {
    (0, 0, 0): lambda B: (0.0, 0.0, 0.0),
    (1, 0, 0): lambda B: (B, 0.0, 1.0),
    (1, 0, 1): lambda B: (B, 1.0, 1.0),
    (1, 1, 0): lambda B: (0.0, 0.0, 1.0),
    (1, 1, 1): lambda B: (0.0, 1.0, 1.0),
}


def relaxation_program(graph: LearningGraph, which: str, rounds: int,
                       bound: float) -> HeuristicValue:
    """Run the exact program on a propositional graph (unit costs).

    which selects the combination operator: 'max' or 'add' (sum). Values at
    or above the bound decode to INFINITY.
    """
    if graph.kind.name != "slg":
        raise ValueError("the exact program runs on the propositional encoding")
    if which not in ("max", "add"):
        raise ValueError(f"which must be 'max' or 'add', got {which!r}")
    if rounds < 1 or bound <= 0:
        raise ValueError("need rounds >= 1 and bound > 0")

    n = graph.num_nodes
    state = np.zeros((n, 3))
    for u in range(n):
        key = tuple(int(b) for b in graph.features[u])
        state[u] = _EMBED[key](float(bound))

    pre_dst, pre_src = graph.adjacency("pre")
    add_dst, add_src = graph.adjacency("add")
    is_action = graph.features[:, 0] == 0.0

    for _ in range(rounds):
        # action update: combine precondition costs, store negated
        if which == "max":
            agg = np.zeros(n)
            np.maximum.at(agg, pre_dst, state[pre_src, 0])
        else:
            agg = np.zeros(n)
            np.add.at(agg, pre_dst, state[pre_src, 0])
        new0 = np.where(is_action, -agg, state[:, 0])
        state = np.column_stack([new0, state[:, 1], state[:, 2]])

        # proposition update: min over achievers + 1 via max of negatives
        cand = np.full(n, -np.inf)
        np.maximum.at(cand, add_dst, state[add_src, 0])
        cand = -cand + 1.0
        new0 = np.where(is_action, 0.0, np.minimum(state[:, 0], cand))
        state = np.column_stack([new0, state[:, 1] * ~is_action, state[:, 2]])

    per_node = state[:, 0] * state[:, 1]
    value = float(np.max(per_node, initial=0.0)) if which == "max" else float(per_node.sum())
    if value >= bound:
        return from_float(float("inf"))
    return from_float(value)
