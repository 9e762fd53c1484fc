"""Heuristic adapters for search: oracles, constants and trained models.

A search heuristic exposes evaluate_batch(states) -> list of floats, with
float('inf') marking states to prune. The states are the task's search
states (packed ints for STRIPS, value tuples for FDR); the oracle and model
adapters decode them with `task.decode` before reading them, and the
constant heuristic never looks at them. Model-backed heuristics clamp outputs
at zero (estimates are cost-to-go) and raise NonFiniteEstimate on NaN or
infinite outputs, which would otherwise prune a state or break the heap
order; training never clamps.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteEstimate
from ..graphs.builders import build_flg, build_llg, build_slg
from ..graphs.encoder import IndexEncoder
from ..heuristics.exact import h_plus, h_star
from ..heuristics.relaxation import h_dp, h_ff
from ..nn.model import MpnnModel, forward_batch
from ..task.ground import GroundingMap, ground_state_atoms
from ..task.model import FdrTask, LiftedTask, StripsTask


class ConstantHeuristic:
    def __init__(self, value: float = 0.0):
        self.value = value

    def evaluate_batch(self, states):
        return [self.value] * len(states)


ORACLES = {
    "hmax": lambda task, s: h_dp(task, s, "max"),
    "hadd": lambda task, s: h_dp(task, s, "add"),
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
    """Trained model evaluated on per-state graphs, batched.

    For the propositional and finite-domain encodings the graph structure is
    state-independent, so a template is built once and only node features
    are rewritten per state. The lifted encoding rebuilds the instance
    subgraph per state.
    """

    def __init__(self, model: MpnnModel, task, lifted: LiftedTask | None = None,
                 gmap: GroundingMap | None = None, encoder: IndexEncoder | None = None):
        self.model = model
        self.task = task
        kind = model.kind.name
        if kind == "slg":
            if not isinstance(task, StripsTask):
                raise TypeError("slg models evaluate propositional tasks")
            self._template = build_slg(task, frozenset())
            self._prop_base = len(task.actions)
        elif kind == "flg":
            if not isinstance(task, FdrTask):
                raise TypeError("flg models evaluate finite-domain tasks")
            self._template = build_flg(task, task.init)
            self._value_base = len(task.variables)
        elif kind == "llg":
            if lifted is None or gmap is None or not isinstance(task, StripsTask):
                raise TypeError("llg models need the ground task, its lifted task "
                                "and the grounding map")
            self.lifted = lifted
            self.gmap = gmap
            self.encoder = encoder or IndexEncoder(model.kind.index_dim, seed=model.seed)
            if self.encoder.dim != model.kind.index_dim:
                raise ValueError("encoder dimension must match the model's index dim")
        else:
            raise ValueError(f"unknown model kind {kind}")

    def _graph_for(self, state):
        kind = self.model.kind.name
        if kind == "slg":
            features = self._template.features.copy()
            for p in state:
                features[self._prop_base + p, 1] = 1.0
            return self._template.with_features(features)
        if kind == "flg":
            features = self._template.features.copy()
            features[:, 3] = 0.0
            offsets = self.task.value_offsets
            for v, d in enumerate(state):
                features[self._value_base + offsets[v] + d, 3] = 1.0
            return self._template.with_features(features)
        return build_llg(self.lifted, ground_state_atoms(self.gmap, state), self.encoder)

    def evaluate_batch(self, states):
        if not states:
            return []
        decode = self.task.decode
        graphs = [self._graph_for(decode(s)) for s in states]
        out = forward_batch(self.model, graphs)
        if not np.isfinite(out).all():
            raise NonFiniteEstimate(f"{self.model.kind.name} model gave a non-finite estimate")
        return np.maximum(out, 0.0).tolist()
