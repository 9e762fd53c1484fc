"""Color refinement (1-WL) over learning graphs.

Edge labels are handled by replacing each labeled edge with an auxiliary
node colored by its label, connected to both endpoints. Colors are stable
64-bit hashes of (own color, sorted multiset of neighbor colors), so
histograms are canonical and comparable across graphs.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from ..graphs.core import LearningGraph


@dataclass(frozen=True)
class ColorHistogram:
    """Multiset of stable colors plus the number of refinement rounds."""

    counts: tuple[tuple[int, int], ...]
    rounds: int

    def same_colors(self, other: "ColorHistogram") -> bool:
        return self.counts == other.counts


def _hash_key(key) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _hash_round(own: int, neighbors: list[int]) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(own.to_bytes(8, "big"))
    for c in sorted(neighbors):
        h.update(c.to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big")


def _transformed(graph: LearningGraph):
    """Node colors and adjacency of the edge-to-node transformed graph."""
    n = graph.num_nodes
    keys = graph.color_keys or [tuple(row) for row in graph.features.tolist()]
    colors = [_hash_key(("node", key)) for key in keys]
    adjacency: list[list[int]] = [[] for _ in range(n + graph.num_edges)]
    for j, (u, v, lab) in enumerate(graph.edges):
        aux = n + j
        colors.append(_hash_key(("edge", lab)))
        adjacency[u].append(aux)
        adjacency[v].append(aux)
        adjacency[aux].append(u)
        adjacency[aux].append(v)
    return colors, adjacency


def _refine(colors: list[int], adjacency: list[list[int]], combine) -> tuple[list[int], int]:
    rounds = 0
    distinct = len(set(colors))
    while True:
        rounds += 1
        colors = [combine(colors[u], [colors[v] for v in adjacency[u]])
                  for u in range(len(colors))]
        new_distinct = len(set(colors))
        if new_distinct == distinct:
            return colors, rounds
        distinct = new_distinct


def wl_refine(graph: LearningGraph) -> ColorHistogram:
    """Refine to stability and return the canonical stable-color histogram."""
    colors, adjacency = _transformed(graph)
    colors, rounds = _refine(colors, adjacency, _hash_round)
    counts = tuple(sorted(Counter(colors).items()))
    return ColorHistogram(counts, rounds)
