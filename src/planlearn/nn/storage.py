"""Model files: a self-describing JSON container with a content checksum.

Floats are serialized with shortest round-trip repr, so model_to_json ->
model_from_json is bit-exact on every parameter. The documented size bound
is 32 * parameter_count + 4096 bytes (see docs/formats.md). A file loads only
when its checksum matches, its kind, aggregator and readout are known, and
its parameters are finite and exactly those `init_model` creates for its
kind, layer count and hidden width; every other file raises
ChecksumMismatch or FormatVersionMismatch, never a numpy error later in a
forward.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import ChecksumMismatch, FormatVersionMismatch, finite_json, named_input
from ..graphs.core import GraphKind
from .model import AGGREGATORS, READOUTS, MpnnModel, param_shapes

FORMAT = "planlearn-model"
VERSION = 1


def _payload(model: MpnnModel) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "kind": model.kind.name,
        "T": model.kind.index_dim,
        "layer_count": model.layer_count,
        "hidden_dim": model.hidden_dim,
        "aggregator": model.aggregator,
        "readout": model.readout,
        "seed": model.seed,
        "label_order": list(model.kind.labels),
        "params": {name: model.params[name].tolist() for name in sorted(model.params)},
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def model_to_json(model: MpnnModel) -> str:
    payload = _payload(model)
    payload["checksum"] = _checksum({k: v for k, v in payload.items()})
    return finite_json(payload, "model file")


def model_from_json(text: str) -> MpnnModel:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChecksumMismatch(f"model file truncated or corrupt: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise FormatVersionMismatch("not a model file")
    if payload.get("version") != VERSION:
        raise FormatVersionMismatch(
            f"model format version {payload.get('version')}, expected {VERSION}")
    stored = payload.pop("checksum", None)
    if stored is None or stored != _checksum(payload):
        raise ChecksumMismatch("model file checksum does not match contents")
    try:
        kind = GraphKind(payload["kind"], payload["T"])
    except ValueError as exc:
        raise FormatVersionMismatch(str(exc)) from None
    for key, known in (("aggregator", AGGREGATORS), ("readout", READOUTS)):
        if payload[key] not in known:
            raise FormatVersionMismatch(f"{key} {payload[key]!r} is not one of {known}")
    if list(kind.labels) != payload["label_order"]:
        raise FormatVersionMismatch("label order does not match the graph kind")
    layer_count, hidden_dim = payload["layer_count"], payload["hidden_dim"]
    params = {name: _array(name, arr) for name, arr in payload["params"].items()}
    _check_params(params, param_shapes(kind, layer_count, hidden_dim),
                  f"{kind.name} model with {layer_count} layers, hidden_dim {hidden_dim} "
                  f"and feature dim {kind.dim}")
    return MpnnModel(kind, layer_count, hidden_dim, payload["aggregator"],
                     payload["readout"], payload["seed"], params)


def _array(name: str, values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatVersionMismatch(f"parameter {name} is not an array of numbers") from None


def _check_params(params: dict, shapes: dict, what: str) -> None:
    """The stored parameters must be those `shapes` names, with its shapes,
    and finite."""
    if params.keys() != shapes.keys():
        missing = sorted(shapes.keys() - params.keys())
        extra = sorted(params.keys() - shapes.keys())
        raise FormatVersionMismatch(
            f"parameters do not fit a {what}: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise FormatVersionMismatch(
                f"parameter {name} has shape {params[name].shape}, expected {shape} "
                f"in a {what}")
        if not np.isfinite(params[name]).all():
            raise FormatVersionMismatch(f"parameter {name} holds a non-finite value")


def load_model(path) -> MpnnModel:
    """The model stored at path; an invalid file raises with the path in the
    message."""
    return named_input(path, model_from_json, Path(path).read_text())
