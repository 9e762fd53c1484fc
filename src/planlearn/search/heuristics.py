"""Heuristic adapters for search: oracles, constants and trained models.

A search heuristic exposes evaluate_batch(states) -> list of floats, with
float('inf') marking states to prune. The states are the packed search
states of a StripsTask; the oracle and model adapters decode them with
`task.decode` before reading them, and the constant heuristic never looks
at them. A model heuristic turns decoded states into graphs with the
builder that `graphs.builders.state_graphs` binds for its encoding, as
training does. Model-backed heuristics clamp outputs
at zero (estimates are cost-to-go) and raise NonFiniteEstimate on NaN or
infinite outputs, which would otherwise prune a state or break the heap
order; training never clamps.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteEstimate
from ..graphs.builders import state_graphs
from ..graphs.encoder import IndexEncoder
from ..heuristics.exact import h_plus, h_star
from ..heuristics.relaxation import h_add, h_ff, h_max
from ..nn.model import MpnnModel, forward_batch
from ..task.ground import GroundingMap
from ..task.model import FdrTask, LiftedTask, StripsTask


class ConstantHeuristic:
    def __init__(self, value: float = 0.0):
        self.value = value

    def evaluate_batch(self, states):
        return [self.value] * len(states)


# Oracle heuristics by name: the one table `solve`, `oracle` and `experiment` read.
ORACLES = {
    "hmax": h_max,
    "hadd": h_add,
    "hff": h_ff,
    "hplus": h_plus,
    "hstar": h_star,
}


class OracleHeuristic:
    """Exact reference heuristic bound to a propositional task."""

    def __init__(self, task: StripsTask, which: str):
        if which not in ORACLES:
            raise ValueError(f"unknown oracle {which!r}; choose from {sorted(ORACLES)}")
        self.task = task
        self.which = which

    def evaluate_batch(self, states):
        fn, task = ORACLES[self.which], self.task
        return [float(fn(task, task.decode(s))) for s in states]


class ModelHeuristic:
    """Trained model evaluated with one forward per state's graph, so an
    estimate does not depend on which states share an evaluate_batch call.

    The graph function of the model's encoding is bound once per task with
    `state_graphs`, the same builder training uses: slg and flg rewrite the
    state column of a per-task template, llg appends each state's instance
    nodes and gamma edges to a per-task schema template. Either way a state
    graph shares its template's plan entries (all of them for slg and flg,
    the schema labels' for llg), so a forward builds at most gamma's entry
    and the readout index. llg models need the lifted task and grounding
    map; their index embeddings default to the model's seed, as in training.
    flg models read the finite-domain task `fdr` when `task` is its
    `strips_view`, and the binary view of `task` otherwise.
    """

    def __init__(self, model: MpnnModel, task: StripsTask, lifted: LiftedTask | None = None,
                 gmap: GroundingMap | None = None, encoder: IndexEncoder | None = None,
                 fdr: FdrTask | None = None):
        kind = model.kind
        if kind.name == "llg":
            encoder = encoder or IndexEncoder(kind.index_dim, seed=model.seed)
            if encoder.dim != kind.index_dim:
                raise ValueError("encoder dimension must match the model's index dim")
        self.model = model
        self.task = task
        self._graph_of = state_graphs(kind.name, task, lifted, gmap, encoder, fdr)

    def evaluate_batch(self, states):
        decode = self.task.decode
        graphs = [self._graph_of(decode(s)) for s in states]
        out = forward_batch(self.model, graphs)
        if not np.isfinite(out).all():
            raise NonFiniteEstimate(f"{self.model.kind.name} model gave a non-finite estimate")
        return np.maximum(out, 0.0).tolist()
