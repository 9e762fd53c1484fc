"""Adam/MSE minibatch training with the holdout-driven learning-rate schedule.

A quarter of the data is held out; when its loss has not improved for
patience_epochs epochs the learning rate drops by the schedule factor, and
training stops once the rate falls below stop_below (or at the max_epochs
safety cap). Everything is reproducible from the config seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyDataset, NonFiniteLoss
from ..graphs.core import LearningGraph
from ..seeding import rng_for
from .model import MpnnModel, backward_packed, forward_packed, init_model, pack_graphs


@dataclass(frozen=True)
class LabeledGraphSample:
    graph: LearningGraph
    target: float

    def __post_init__(self):
        if not math.isfinite(self.target):
            raise ValueError("training target must be finite")


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr0: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    holdout_frac: float = 0.25
    lr_factor: float = 10.0
    patience_epochs: int = 10
    stop_below: float = 1e-5
    seed: int = 0
    max_epochs: int = 10_000
    layer_count: int = 8
    hidden_dim: int = 64
    aggregator: str = "mean"
    readout: str = "sum"

    def __post_init__(self):
        if not 0 < self.holdout_frac < 1:
            raise ValueError("holdout_frac must be in (0, 1)")
        if self.lr0 <= self.stop_below:
            raise ValueError("initial learning rate must exceed stop_below")


@dataclass
class TraceRow:
    epoch: int
    train_loss: float
    holdout_loss: float
    lr: float
    seconds: float


@dataclass
class TrainTrace:
    rows: list[TraceRow] = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,holdout_loss,lr"]
        lines.extend(f"{r.epoch},{r.train_loss!r},{r.holdout_loss!r},{r.lr!r}"
                     for r in self.rows)
        return "\n".join(lines) + "\n"

    def timings_csv(self) -> str:
        lines = ["epoch,seconds"]
        lines.extend(f"{r.epoch},{r.seconds!r}" for r in self.rows)
        return "\n".join(lines) + "\n"


class LrSchedule:
    """Drop the rate by `factor` after `patience` non-improving epochs; stop
    when it falls below `stop_below`."""

    def __init__(self, lr0: float, factor: float, patience: int, stop_below: float):
        self.lr = lr0
        self.factor = factor
        self.patience = patience
        self.stop_below = stop_below
        self.best = math.inf
        self.streak = 0
        self.stopped = False

    def observe(self, loss: float) -> float:
        """Feed one epoch's holdout loss; returns the rate for the next epoch."""
        if loss < self.best:
            self.best = loss
            self.streak = 0
        else:
            self.streak += 1
            if self.streak >= self.patience:
                self.lr /= self.factor
                self.streak = 0
                if self.lr < self.stop_below:
                    self.stopped = True
        return self.lr


class Adam:
    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        c = self.config
        self.t += 1
        bc1 = 1 - c.beta1 ** self.t
        bc2 = 1 - c.beta2 ** self.t
        for k, p in params.items():
            # m = beta1*m + (1-beta1)*g and v = beta2*v + (1-beta2)*g*g,
            # in place and in that operation order
            g, m, v = grads[k], self.m[k], self.v[k]
            m *= c.beta1
            m += (1 - c.beta1) * g
            g2 = (1 - c.beta2) * g
            g2 *= g
            v *= c.beta2
            v += g2
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


def _mse_and_grad(model: MpnnModel, batch, targets: np.ndarray):
    out, cache = forward_packed(model, batch, need_cache=True)
    diff = out - targets
    loss = float(np.mean(diff * diff))
    dout = 2.0 * diff / len(targets)
    grads = backward_packed(model, batch, cache, dout)
    return loss, grads


def train(samples: list[LabeledGraphSample], config: TrainConfig | None = None,
          model: MpnnModel | None = None):
    """Train a model on labeled graphs; returns (model, TrainTrace)."""
    config = config or TrainConfig()
    if len(samples) < 2:
        raise EmptyDataset(f"need at least 2 samples, got {len(samples)}")
    kind = samples[0].graph.kind
    if model is None:
        model = init_model(kind, config.layer_count, config.hidden_dim,
                           config.aggregator, config.readout, seed=config.seed)

    split_rng = rng_for(config.seed, "holdout-split")
    perm = split_rng.permutation(len(samples))
    n_hold = max(1, int(round(config.holdout_frac * len(samples))))
    if n_hold >= len(samples):
        n_hold = len(samples) - 1
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]

    hold_batch = pack_graphs([samples[i].graph for i in hold_idx])
    hold_targets = np.array([samples[i].target for i in hold_idx], dtype=np.float64)
    train_samples = [samples[i] for i in train_idx]

    schedule = LrSchedule(config.lr0, config.lr_factor,
                          config.patience_epochs, config.stop_below)
    adam = Adam(model.params, config)
    epoch_rng = rng_for(config.seed, "epoch-shuffle")
    trace = TrainTrace()
    start = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        lr = schedule.lr
        order = epoch_rng.permutation(len(train_samples))
        total, count = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            chunk = order[lo:lo + config.batch_size]
            batch = pack_graphs([train_samples[i].graph for i in chunk])
            targets = np.array([train_samples[i].target for i in chunk], dtype=np.float64)
            loss, grads = _mse_and_grad(model, batch, targets)
            if not math.isfinite(loss):
                raise NonFiniteLoss(
                    f"non-finite training loss at epoch {epoch} (lr={lr:g})")
            adam.step(model.params, grads, lr)
            total += loss * len(chunk)
            count += len(chunk)

        hold_out, _ = forward_packed(model, hold_batch)
        hold_loss = float(np.mean((hold_out - hold_targets) ** 2))
        if not math.isfinite(hold_loss):
            raise NonFiniteLoss(f"non-finite holdout loss at epoch {epoch}")
        trace.rows.append(TraceRow(epoch, total / count, hold_loss, lr,
                                   time.perf_counter() - start))
        schedule.observe(hold_loss)
        if schedule.stopped:
            trace.stop_reason = "lr-schedule"
            break
    else:
        trace.stop_reason = "max-epochs"
    return model, trace
