"""Synthetic ground-truth downwash wrench fields.

A parametric single-vehicle field (a narrow Gaussian column that decays
with vertical separation and barely expands laterally), two K-vehicle
aggregation rules — plain componentwise addition, and a "merging" rule in
which nearby columns contract toward their common centroid and drift along
the formation's direction of travel — plus seeded measurement-noise
injection.  This stands in for load-stand measurements.

Both rules map a feature batch (m, K, 6) to a wrench batch (m, 6) (see
:mod:`downwash.core`): :func:`additive_batch` and :func:`merging_batch`.
Like the models, they take the batch in canonical order, as
``core.relative_features`` and ``formations.centroid_features`` build it;
that order alone makes their sums independent of how the neighbours were
listed.  :func:`make_oracle` binds a rule's parameters and returns the batch
function itself, the callable that generation and evaluation take.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import FormationSnapshot, Wrench6
from .rng import normal_rows


@dataclass(frozen=True)
class DownwashParams:
    """Shape parameters of the single-vehicle downwash column.

    peak_force: D-axis force (N) directly beneath the vehicle as dz -> 0.
    core_radius: lateral 1/e radius of the column (m); kept within the
        sub-0.15 m body radius of a small multirotor.
    expansion_rate: column radius growth per metre of vertical separation.
    vertical_decay_length: e-folding length (m) of the vertical decay.
    torque_gain: lever-arm efficiency mapping off-centre D-force to
        pitch/roll torque (N*m per N per m of lateral offset).
    lateral_gain: fraction of the D-force appearing as a radially outward
        push near the column edge.
    """

    peak_force: float = 4.0
    core_radius: float = 0.12
    expansion_rate: float = 0.05
    vertical_decay_length: float = 3.0
    torque_gain: float = 0.2
    lateral_gain: float = 0.1

    def __post_init__(self):
        if not (self.peak_force > 0 and self.core_radius > 0 and self.vertical_decay_length > 0):
            raise ValueError("peak_force, core_radius and vertical_decay_length must be > 0")
        if self.expansion_rate < 0:
            raise ValueError("expansion_rate must be >= 0")


@dataclass(frozen=True)
class MergeParams:
    """Controls the nonlinear merging of proximal downwash columns.

    merge_radius: lateral distance (m) below which two columns link into a
        cluster.  contraction_rate: how fast cluster members are pulled
        toward the cluster centroid per metre of merged vertical travel.
    advect_gain: forward displacement of a merged column per metre of
        merged vertical travel, along the cluster's direction of travel.

    Merged travel is the vertical separation beyond the near-field core
    regime (2*core_radius), so formations barely above the sufferer stay
    effectively additive and the nonlinearity grows with altitude.
    """

    merge_radius: float = 0.6
    contraction_rate: float = 0.8
    advect_gain: float = 0.15

    def __post_init__(self):
        if self.merge_radius <= 0:
            raise ValueError("merge_radius must be > 0")
        if self.contraction_rate < 0 or self.advect_gain < 0:
            raise ValueError("contraction_rate and advect_gain must be >= 0")


@dataclass(frozen=True)
class NoiseParams:
    """Zero-mean Gaussian measurement noise, ~2 sigma inside +/-0.05 N."""

    sigma_force: float = 0.025
    sigma_torque: float = 0.005
    seed: int = 0

    def __post_init__(self):
        if self.sigma_force < 0 or self.sigma_torque < 0:
            raise ValueError("noise sigmas must be >= 0")


def single_vehicle_wrench(dpos, p: DownwashParams, core_radius=None) -> np.ndarray:
    """Wrenches (..., 6) exerted on the sufferer by sources at relative positions (..., 3).

    Zero unless the source is strictly above (negative relative D).  The
    D-force is a Gaussian column of radius R(dz) = core_radius*(1 +
    expansion_rate*dz) whose peak drops as exp(-dz/decay) * (R(0)/R(dz))^2,
    keeping the column's momentum flux consistent as it widens.  Pitch/roll
    torques come from the D-force acting at the lateral offset; the lateral
    push points radially outward from the column axis.  Yaw torque is zero
    (noise-dominated in practice, so modelled as pure noise).
    ``core_radius`` (broadcast against (...)) overrides ``p.core_radius`` per source.
    """
    dpos = np.asarray(dpos, dtype=float)
    dn, de = dpos[..., 0], dpos[..., 1]
    above = -dpos[..., 2] > 0.0
    dz = np.where(above, -dpos[..., 2], 0.0)
    core = p.core_radius if core_radius is None else core_radius
    r2 = dn * dn + de * de
    radius = core * (1.0 + p.expansion_rate * dz)
    gauss = np.exp(-r2 / (radius * radius))
    f_d = p.peak_force * gauss * np.exp(-dz / p.vertical_decay_length) * (core / radius) ** 2
    f_d = np.where(above, f_d, 0.0)
    # Torque of the off-centre D-force about the sufferer centre: tau = offset x F.
    t_roll = p.torque_gain * f_d * de
    t_pitch = -p.torque_gain * f_d * dn
    # Radially outward push, (r/R)*exp(-(r/R)^2) profile; the 1/r of the unit
    # vector cancels the r of the profile, so there is no 0/0 on axis.
    f_n = -p.lateral_gain * f_d * gauss * dn / radius
    f_e = -p.lateral_gain * f_d * gauss * de / radius
    return np.stack([f_n, f_e, f_d, t_pitch, t_roll, np.zeros_like(f_d)], axis=-1)


def _ordered_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` one slice at a time in index order, starting from
    zero, so the rounding never depends on the batch size."""
    total = np.zeros(x.shape[:axis] + x.shape[axis + 1 :])
    for j in range(x.shape[axis]):
        total = total + np.take(x, j, axis=axis)
    return total


def additive_batch(feats: np.ndarray, p: DownwashParams) -> np.ndarray:
    """Canonically ordered feature batch (m, K, 6) -> wrench batch (m, 6): the
    componentwise sum of per-neighbour wrenches (the linear ground truth)."""
    feats = np.asarray(feats, dtype=float)
    return _ordered_sum(single_vehicle_wrench(feats[..., :3], p), axis=1)


def _cluster_labels(feats: np.ndarray, p: DownwashParams, m: MergeParams) -> np.ndarray:
    """Single-linkage cluster labels (m, K) over lateral distance among
    merge-eligible sources; each label is the smallest index in its cluster.

    A source is eligible once it is clear of the near-field core regime
    (dz > 2*core_radius).  K-1 rounds of min-label propagation over the
    link matrix reach across any chain of K sources.
    """
    k = feats.shape[1]
    eligible = -feats[..., 2] > 2.0 * p.core_radius
    lateral = np.hypot(
        feats[:, :, None, 0] - feats[:, None, :, 0], feats[:, :, None, 1] - feats[:, None, :, 1]
    )
    link = eligible[:, :, None] & eligible[:, None, :] & (lateral < m.merge_radius)
    labels = np.broadcast_to(np.arange(k), feats.shape[:2])
    for _ in range(k - 1):
        labels = np.minimum(labels, np.where(link, labels[:, None, :], k).min(axis=2))
    return labels


def merging_batch(feats: np.ndarray, p: DownwashParams, m: MergeParams) -> np.ndarray:
    """Canonically ordered feature batch (m, K, 6) -> wrench batch (m, 6)
    under the nonlinear ground truth: columns of a virtually merged cluster are pulled toward the
    cluster centroid, advected along the cluster's mean travel direction and
    narrowed so the total cross-section contracts with vertical separation;
    the transformed sources are then summed like the additive rule.

    Singleton clusters pass through untouched, so K=1 (and any well-separated
    formation) reproduces ``additive_batch`` exactly.
    """
    feats = np.asarray(feats, dtype=float)
    labels = _cluster_labels(feats, p, m)
    member = labels[:, :, None] == labels[:, None, :]  # (m, K, K)
    size = member.sum(axis=2)
    # per source, the mean features of its cluster: centroid and mean velocity
    mean = _ordered_sum(np.where(member[..., None], feats[:, None], 0.0), axis=2) / size[..., None]
    speed = np.hypot(mean[..., 3], mean[..., 4])[..., None]
    vhat = np.divide(mean[..., 3:5], speed, out=np.zeros(speed.shape[:-1] + (2,)), where=speed > 0.0)
    lateral, dd = feats[..., :2], feats[..., 2]
    # vertical travel spent merging: only the part beyond the core regime
    merged = np.maximum(0.0, -dd - 2.0 * p.core_radius)
    pull = np.minimum(1.0, m.contraction_rate * merged)[..., None]
    sqrt_c = np.sqrt(size)
    shrink = (1.0 / sqrt_c) * (1.0 + (sqrt_c - 1.0) * np.exp(-merged / p.vertical_decay_length))
    grouped = size > 1
    moved = lateral + pull * (mean[..., :2] - lateral) + m.advect_gain * merged[..., None] * vhat
    virtual = np.concatenate([np.where(grouped[..., None], moved, lateral), dd[..., None]], axis=-1)
    core = np.where(grouped, p.core_radius * shrink, p.core_radius)
    wrenches = single_vehicle_wrench(virtual, p, core)
    # cluster by cluster, members in index order within each cluster
    order = np.argsort(labels, axis=1, kind="stable")
    return _ordered_sum(np.take_along_axis(wrenches, order[..., None], axis=1), axis=1)


def aggregate_merging(snap: FormationSnapshot, p: DownwashParams, m: MergeParams) -> Wrench6:
    """The merging wrench of one snapshot: :func:`merging_batch` on a batch of
    one.  Kept for the reference check in ``benchmarks/test_reference.py``,
    which compares single snapshots against an independent implementation."""
    return Wrench6(merging_batch(snap.features()[None], p, m)[0])


def add_noise(truth: np.ndarray, n: NoiseParams) -> np.ndarray:
    """Wrench batch (m, 6) plus zero-mean Gaussian measurement noise: six
    standard normals per row from :func:`~downwash.rng.normal_rows`, one
    stream per chunk of rows, so each row's noise depends only on the seed
    and its index."""
    scale = np.array([n.sigma_force] * 3 + [n.sigma_torque] * 3)
    with np.errstate(over="ignore"):  # a sigma near the float limit gives inf, which save_dataset refuses
        return truth + scale * normal_rows(n.seed, len(truth), 6)


# The oracle kinds a dataset entry or the eval section may name.
Oracle = Literal["additive", "merging"]


def make_oracle(kind: Oracle, params: DownwashParams, merge: MergeParams | None = None):
    """The ``kind`` rule's batch function with its parameters bound (``merge``
    defaults to ``MergeParams()``), as dataset generation and the CLI take it."""
    if kind == "additive":
        return functools.partial(additive_batch, p=params)
    if kind == "merging":
        return functools.partial(merging_batch, p=params, m=merge or MergeParams())
    raise ValueError(f"unknown oracle kind {kind!r} (expected 'additive' or 'merging')")
