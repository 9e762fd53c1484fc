"""Message-passing network: forward, training, storage."""

from .model import (
    MpnnModel,
    PackedBatch,
    backward_packed,
    forward,
    forward_batch,
    forward_packed,
    init_model,
    pack_graphs,
)
from .storage import load_model, model_from_json, model_to_json
from .train import (
    Adam,
    LabeledGraphSample,
    LrSchedule,
    TrainConfig,
    TrainTrace,
    train,
)

__all__ = [
    "Adam", "LabeledGraphSample", "LrSchedule", "MpnnModel", "PackedBatch",
    "TrainConfig", "TrainTrace", "backward_packed", "forward", "forward_batch",
    "forward_packed", "init_model", "load_model", "model_from_json",
    "model_to_json", "pack_graphs", "train",
]
