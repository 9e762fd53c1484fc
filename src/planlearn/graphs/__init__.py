"""Graph encodings of planning tasks."""

from .builders import build_llg, build_slg, state_graphs
from .core import GraphKind, LearningGraph, flg_kind, llg_kind, slg_kind
from .encoder import IndexEncoder
from .io import graph_to_dot, graph_to_json

__all__ = [
    "GraphKind", "IndexEncoder", "LearningGraph", "build_llg", "build_slg",
    "flg_kind", "graph_to_dot", "graph_to_json", "llg_kind", "slg_kind",
    "state_graphs",
]
