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

    Graphs compare and hash by identity. Edge storage is the edge list,
    the per-label adjacency arrays and `_plans`, which maps a label to the
    aggregation-plan entries `nn.model` keeps for it by hidden width (other
    keys hold entries of the whole graph, such as its readout index). A
    `with_features` copy shares all of it. An `extended` graph shares the
    adjacency arrays and plan entries of every label its new edges do not
    use, and builds the rest for itself.
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
        self._check_edges(self.edges, 0)

    def _check_edges(self, edges, first_new: int):
        """Raise on an edge with an unknown label, a self-loop, an endpoint
        outside the node range, one below `first_new` on both ends, or a
        second copy of an undirected edge."""
        n = self.num_nodes
        labels = set(self.kind.labels)
        seen = set()
        for u, v, lab in edges:
            if lab not in labels:
                raise ValueError(f"edge label {lab!r} not in {sorted(labels)}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside node range")
            if u < first_new and v < first_new:
                raise ValueError(f"appended edge ({u},{v}) touches no appended node")
            key = (u, v, lab) if u < v else (v, u, lab)
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

    def extended(self, features: np.ndarray, edges: list[tuple[int, int, str]],
                 node_names: tuple[str, ...], color_keys: tuple) -> "LearningGraph":
        """This graph with nodes and edges appended: `features`,
        `node_names` and `color_keys` cover every node, this graph's first,
        and `edges` lists only the new edges, each touching a new node, so
        only they are checked and indexed. Labels the new edges do not use
        keep this graph's adjacency arrays and plan entries by identity; the
        seed is kept."""
        n, d = features.shape
        if n < self.num_nodes or d != self.features.shape[1]:
            raise ValueError("extended features must append rows to the template's")
        g = LearningGraph.__new__(LearningGraph)
        g.kind = self.kind
        g.features = features
        g.edges = self.edges + edges
        g.node_names = node_names
        g.color_keys = color_keys
        g.seed = self.seed
        g._check_edges(edges, self.num_nodes)
        new = _index(self.kind.labels, edges)
        g._adjacency = {}
        g._plans = {}
        for lab in self.kind.labels:
            dst, src = self.adjacency(lab)
            if len(new[lab][0]) == 0:
                g._adjacency[lab] = (dst, src)
                g._plans[lab] = self._plans.setdefault(lab, {})
            else:
                g._adjacency[lab] = tuple(np.concatenate(pair) for pair in
                                          zip((dst, src), new[lab]))
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
            self._adjacency.update(_index(self.kind.labels, self.edges))
        return self._adjacency[label]

    def label_counts(self) -> dict[str, int]:
        counts = {lab: 0 for lab in self.kind.labels}
        for _, _, lab in self.edges:
            counts[lab] += 1
        return counts


def _index(labels, edges) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """label -> (dst, src) int64 arrays of the edges, each edge (u, v) in
    order as the adjacent pair u<-v, v<-u."""
    pairs = {lab: ([], []) for lab in labels}
    for u, v, lab in edges:
        dst, src = pairs[lab]
        dst += (u, v)
        src += (v, u)
    return {lab: (np.asarray(dst, dtype=np.int64), np.asarray(src, dtype=np.int64))
            for lab, (dst, src) in pairs.items()}
