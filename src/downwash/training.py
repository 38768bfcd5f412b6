"""Training machinery for the learnt aggregation models.

Both model classes are trained with Adam on a weighted MSE between the
model prediction and the noisy measurement, with gradients flowing through
the set summation.  Training reads the datasets' arrays directly: every
sample's canonically ordered neighbour feature rows are stacked into one
(R, 6) array with per-sample row counts (n,), so datasets of different K
train together without padding; a shuffled batch gathers its samples' rows
through per-sample offsets.  Runs are bitwise deterministic given the
config.

Each step runs in float32 against float64 master weights, the scheme of
mixed-precision training (Micikevicius et al., ICLR 2018).  ``train`` casts
the rows, the targets and the axis weights to float32 once and builds one
float32 copy of the model (``model.astype``).  Before each step it copies
``model.flat``, the model's only parameter array, into that copy; the
copy's forward and backward give a float32 gradient, and Adam steps the
float64 ``model.flat`` with it, its moments float64 too.  So a zero
learning rate leaves ``model.flat`` bitwise unchanged, and the model, its
predictions and its file stay float64.

``train`` owns the step's buffers: one workspace of the float32 copy sized
for the largest possible batch (``batch_size`` samples times the largest K
rows), sliced to each batch and reused by every step, and one float32
gradient vector laid out like ``model.flat``.  Called without them,
:func:`batch_loss_and_gradients` allocates, in the model's dtype, and the
gradient it returns is never overwritten by a later call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import relative_features
from .mlp import Adam, weighted_mse
from .models import FEATURE_DIM
from .rng import stream, substream_seed


class TrainingDivergence(RuntimeError):
    """Raised when a parameter goes non-finite during training; ``parameter``
    names the first such array in ``model.flat`` order, for example
    ``encoder.W2``."""

    def __init__(self, epoch: int, parameter: str):
        super().__init__(f"non-finite parameter {parameter} detected after epoch {epoch}")
        self.epoch = epoch
        self.parameter = parameter


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


def dataset_arrays(datasets):
    """Stack a list of datasets into ragged training arrays.

    Returns (rows (R, 6), counts (n,), targets (n, 6)): sample i owns the
    next ``counts[i]`` canonically ordered feature rows, and targets are the
    noisy measurements.
    """
    if sum(len(d) for d in datasets) == 0:
        raise ValueError("no training records")
    rows = np.concatenate([relative_features(d.states).reshape(-1, FEATURE_DIM) for d in datasets])
    counts = np.concatenate([np.full(len(d), d.k) for d in datasets])
    targets = np.concatenate([d.measured for d in datasets])
    return rows, counts, targets


def loss_weights_for(targets: np.ndarray, sigma_floor: float) -> np.ndarray:
    """Per-axis 1/std^2 normalization so N and N*m axes train comparably."""
    std = np.maximum(targets.std(axis=0), sigma_floor)
    return 1.0 / (std * std)


def batch_loss_and_gradients(model, rows, counts, targets, axis_weights, workspace=None, out=None):
    """Weighted-MSE loss and its exact gradient, laid out like ``model.flat``,
    of a ragged batch (see :func:`dataset_arrays`).

    The gradient is ``out``, newly allocated when not given; ``workspace``
    (from ``model.workspace``) holds the activations and deltas in between.
    """
    pred, cache = model.forward(rows, counts, workspace)
    loss, dpred = weighted_mse(pred, targets, axis_weights)
    return loss, model.backward(cache, dpred, workspace, out)


def train(model, datasets, cfg: TrainConfig):
    """Fit ``model`` in place on the noisy measurements; returns the per-epoch
    mean loss history.  The axis weights used go to ``model.metadata``.

    Shuffling is driven by a dedicated substream of ``cfg.seed``, so two runs
    with identical config and data produce bitwise-identical parameters.
    Each step's forward and backward run in float32 on a copy of
    ``model.flat`` (see the module docstring).  Any non-finite parameter
    aborts with :class:`TrainingDivergence`, the run's one report of it: the
    steps run with float overflow and invalid-value warnings silenced.
    """
    rows, counts, targets = dataset_arrays(datasets)
    offsets = np.cumsum(counts) - counts
    axis_weights = loss_weights_for(targets, cfg.sigma_floor)
    rows32, targets32, weights32 = (a.astype(np.float32) for a in (rows, targets, axis_weights))
    net = model.astype(np.float32)
    n = len(counts)
    # one workspace for the largest possible batch and one gradient vector, reused by every step
    batch = min(cfg.batch_size, n)
    workspace = net.workspace(batch, min(batch * int(counts.max()), len(rows)))
    grad = np.empty_like(net.flat)
    optimiser = Adam(
        model.flat,
        learning_rate=cfg.learning_rate,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.epsilon,
    )
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
            with np.errstate(over="ignore", invalid="ignore"):
                net.flat[...] = model.flat
                loss, _ = batch_loss_and_gradients(
                    net, rows32[np.arange(len(shift)) + shift], pick_counts, targets32[pick], weights32, workspace, grad
                )
                optimiser.step(model.flat, grad)
            total += loss * len(pick)
        if not np.isfinite(model.flat).all():
            bad = (name for name, p in model.named_parameters().items() if not np.isfinite(p).all())
            raise TrainingDivergence(epoch, next(bad))
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
    return history
