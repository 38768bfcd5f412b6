"""Training machinery for the learnt aggregation models.

Both model classes are trained with Adam on a weighted MSE between the
model prediction and the noisy measurement, with gradients flowing through
the set summation.  Training reads the datasets' arrays directly: every
sample's canonically ordered neighbour feature rows are stacked into one
(R, 6) array with per-sample row counts (n,), so datasets of different K
train together without padding; a shuffled batch gathers its samples' rows
through per-sample offsets.  Runs are bitwise deterministic given the
config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import relative_features
from .mlp import Adam, weighted_mse
from .models import FEATURE_DIM
from .rng import stream, substream_seed


class TrainingDivergence(RuntimeError):
    """Raised when a parameter goes non-finite during training."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite parameter detected after epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0
    # Per-axis loss weights are 1/std^2 of the targets, floored at the
    # measurement-noise band so axes that carry nothing but noise cannot
    # drown the gradient of the axes with real signal.
    sigma_floor: float = 0.05

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.epsilon > 0):
            raise ValueError("invalid Adam parameters")


def dataset_arrays(data):
    """Stack one or more datasets into ragged training arrays.

    Returns (rows (R, 6), counts (n,), targets (n, 6)): sample i owns the
    next ``counts[i]`` canonically ordered feature rows, and targets are the
    noisy measurements.
    """
    datasets = [data] if hasattr(data, "states") else list(data)  # one dataset or several
    if sum(len(d) for d in datasets) == 0:
        raise ValueError("no training records")
    rows = np.concatenate([relative_features(d.states).reshape(-1, FEATURE_DIM) for d in datasets])
    counts = np.concatenate([np.full(len(d), d.k) for d in datasets])
    targets = np.concatenate([d.measured for d in datasets])
    return rows, counts, targets


def loss_weights_for(targets: np.ndarray, sigma_floor: float = 0.05) -> np.ndarray:
    """Per-axis 1/std^2 normalization so N and N*m axes train comparably."""
    std = np.maximum(targets.std(axis=0), sigma_floor)
    return 1.0 / (std * std)


def batch_loss_and_gradients(model, rows, counts, targets, axis_weights):
    """Weighted-MSE loss and exact gradients, in ``model.parameters()`` order,
    of a ragged batch (see :func:`dataset_arrays`)."""
    pred, cache = model.forward(rows, counts)
    loss, dpred = weighted_mse(pred, targets, axis_weights)
    return loss, model.backward(cache, dpred)


def train(model, data, cfg: TrainConfig):
    """Fit ``model`` in place on the noisy measurements; returns the per-epoch
    mean loss history and the axis weights used.

    Shuffling is driven by a dedicated substream of ``cfg.seed``, so two runs
    with identical config and data produce bitwise-identical parameters.
    Any non-finite parameter aborts with :class:`TrainingDivergence`.
    """
    rows, counts, targets = dataset_arrays(data)
    offsets = np.cumsum(counts) - counts
    axis_weights = loss_weights_for(targets, cfg.sigma_floor)
    params = model.parameters()
    optimiser = Adam(
        params,
        learning_rate=cfg.learning_rate,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.epsilon,
    )
    n = len(counts)
    shuffle_seed = substream_seed(cfg.seed, "shuffle")
    history = []
    for epoch in range(cfg.epochs):
        order = stream(shuffle_seed, epoch).permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            pick = order[start : start + cfg.batch_size]
            pick_counts = counts[pick]
            # the picked samples' rows, sample by sample
            shift = np.repeat(offsets[pick] - (np.cumsum(pick_counts) - pick_counts), pick_counts)
            loss, grads = batch_loss_and_gradients(
                model, rows[np.arange(len(shift)) + shift], pick_counts, targets[pick], axis_weights
            )
            optimiser.step(params, grads)
            total += loss * len(pick)
        if not all(np.all(np.isfinite(p)) for p in params):
            raise TrainingDivergence(epoch)
        history.append(total / n)
    model.metadata.update(
        {
            "axis_weights": axis_weights.tolist(),
            "epochs": cfg.epochs,
            "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size,
            "seed": cfg.seed,
            "final_loss": history[-1] if history else None,
            "training_samples": int(n),
        }
    )
    return history, axis_weights
