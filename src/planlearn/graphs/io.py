"""Graph dumps: JSON for machine use, DOT for eyeballing."""

from __future__ import annotations

import json

import numpy as np

from ..errors import finite_json
from .core import GraphKind, LearningGraph

_DOT_COLORS = {
    "pre": "black", "add": "blue", "del": "red",
    "varval": "darkgreen", "eff": "blue",
    "nu": "gray", "gamma": "green",
}


def graph_to_json(graph: LearningGraph, output="graph JSON") -> str:
    """The graph as JSON; a non-finite feature raises NonFiniteOutput naming
    `output`."""
    payload = {
        "kind": graph.kind.name,
        "T": graph.kind.index_dim,
        "seed": graph.seed,
        "nodes": [
            {"id": i, "name": graph.node_names[i] if graph.node_names else str(i),
             "feature": list(row)}
            for i, row in enumerate(graph.features.tolist())
        ],
        "edges": [[u, v, lab] for u, v, lab in graph.edges],
    }
    return finite_json(payload, output, indent=1)


def graph_from_json(text: str) -> LearningGraph:
    payload = json.loads(text)
    kind = GraphKind(payload["kind"], payload.get("T", 0))
    nodes = sorted(payload["nodes"], key=lambda n: n["id"])
    features = np.array([n["feature"] for n in nodes], dtype=np.float64)
    names = tuple(n.get("name", str(n["id"])) for n in nodes)
    edges = [(u, v, lab) for u, v, lab in payload["edges"]]
    return LearningGraph(kind, features, edges, names, seed=payload.get("seed", 0))


def graph_to_dot(graph: LearningGraph) -> str:
    lines = ["graph learning_graph {", "  node [shape=circle fontsize=10];"]
    for i in range(graph.num_nodes):
        label = graph.node_names[i] if graph.node_names else str(i)
        lines.append(f'  n{i} [label="{label}"];')
    for u, v, lab in graph.edges:
        color = _DOT_COLORS.get(lab, "black")
        lines.append(f'  n{u} -- n{v} [color={color} label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
