"""Learning graphs: labeled undirected multigraphs with dense node features.

The three kinds share this substrate and differ in label set and feature
dimension:

    slg  d = 3      labels {pre, add, del}
    flg  d = 5      labels {varval, pre, eff}
    llg  d = 5 + T  labels {nu, gamma, pre, add, del}

Edge storage is one list of (u, v, label) plus per-label endpoint arrays in
both orientations, so per-label neighborhood aggregation needs no scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LABELS = {
    "slg": ("pre", "add", "del"),
    "flg": ("varval", "pre", "eff"),
    "llg": ("nu", "gamma", "pre", "add", "del"),
}
_BASE_DIM = {"slg": 3, "flg": 5, "llg": 5}


@dataclass(frozen=True)
class GraphKind:
    """Graph family plus, for lifted graphs, the index-embedding dimension T."""

    name: str
    index_dim: int = 0

    def __post_init__(self):
        if self.name not in _LABELS:
            raise ValueError(f"unknown graph kind {self.name!r}")
        if self.name != "llg" and self.index_dim != 0:
            raise ValueError(f"{self.name} has no index embedding")
        if self.name == "llg" and self.index_dim < 1:
            raise ValueError("llg needs index_dim >= 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return _LABELS[self.name]

    @property
    def dim(self) -> int:
        return _BASE_DIM[self.name] + self.index_dim


def slg_kind() -> GraphKind:
    return GraphKind("slg")


def flg_kind() -> GraphKind:
    return GraphKind("flg")


def llg_kind(index_dim: int = 4) -> GraphKind:
    return GraphKind("llg", index_dim)


@dataclass(eq=False)
class LearningGraph:
    """Nodes are contiguous ids 0..N-1; features is the (N, d) float matrix.

    color_keys are hashable per-node keys used as initial colors by the
    refinement machinery; the lifted builder sets them to the feature bits
    plus index identity, and when they are empty WL colors each node by its
    feature row.

    Graphs compare and hash by identity. The edge storage (edge list,
    adjacency cache and the aggregation plans `nn.model` keys by hidden
    width) is shared by every `with_features` copy.
    """

    kind: GraphKind
    features: np.ndarray
    edges: list[tuple[int, int, str]]
    node_names: tuple[str, ...] = ()
    color_keys: tuple = ()
    seed: int = 0
    _adjacency: dict = field(default_factory=dict, repr=False)
    _plans: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n, d = self.features.shape
        if d != self.kind.dim:
            raise ValueError(f"feature dim {d} != {self.kind.dim} for kind {self.kind.name}")
        labels = set(self.kind.labels)
        seen = set()
        for u, v, lab in self.edges:
            if lab not in labels:
                raise ValueError(f"edge label {lab!r} not in {sorted(labels)}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside node range")
            key = (min(u, v), max(u, v), lab)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    def with_features(self, features: np.ndarray) -> "LearningGraph":
        """Same structure, new features; shares edge storage, adjacency
        cache and aggregation plans. For per-state feature rewrites on a
        fixed task; the copy has no color_keys, so WL colors it by its new
        feature rows."""
        if features.shape != self.features.shape:
            raise ValueError("feature shape must match the template graph")
        g = LearningGraph.__new__(LearningGraph)
        g.kind = self.kind
        g.features = features
        g.edges = self.edges
        g.node_names = self.node_names
        g.color_keys = ()
        g.seed = self.seed
        g._adjacency = self._adjacency
        g._plans = self._plans
        return g

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(dst, src) id arrays for the label, both edge orientations: each
        edge (u, v) in edge order as the adjacent pair u<-v, v<-u. The first
        call indexes every label in one pass over the edges."""
        if not self._adjacency:
            pairs = {lab: ([], []) for lab in self.kind.labels}
            for u, v, lab in self.edges:
                dst, src = pairs[lab]
                dst += (u, v)
                src += (v, u)
            for lab, (dst, src) in pairs.items():
                self._adjacency[lab] = (np.asarray(dst, dtype=np.int64),
                                        np.asarray(src, dtype=np.int64))
        return self._adjacency[label]

    def label_counts(self) -> dict[str, int]:
        counts = {lab: 0 for lab in self.kind.labels}
        for _, _, lab in self.edges:
            counts[lab] += 1
        return counts
