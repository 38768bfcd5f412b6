"""Frames, state arrays, relative features and the batch-of-one snapshot.

Everything lives in the aerospace North-East-Down (NED) frame: the D axis
points down, so a neighbour hovering *above* the sufferer has a negative
relative D offset.

The pipeline works on arrays, not per-sample objects:

* a *state batch* is (n, K+1, 7): per sample, the sufferer then its K
  neighbours, each as position N/E/D (m), velocity N/E/D (m/s) and yaw (rad);
* a *feature batch* is (n, K, 6): per sample, each neighbour's position and
  velocity minus the sufferer's, (dN, dE, dD, dvN, dvE, dvD), with the rows in
  canonical order (:func:`canonical_order`) so that any sum over them is
  independent of the order the neighbours were listed in;
* a *wrench batch* is (n, 6) in ``WRENCH_AXES`` order.

``VehicleState``, ``FormationSnapshot`` and ``Wrench6`` are immutable
per-sample values, the surface that the scripts under ``benchmarks/`` build
samples with; no pipeline stage uses them.  A snapshot turns itself into a
feature batch with :meth:`FormationSnapshot.features`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Component order used for every 6-DOF wrench throughout the package.
WRENCH_AXES = ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")

# Minimum neighbour/sufferer separation accepted in a sample, metres.
MIN_SEPARATION = 1e-6


def canonical_order(feats: np.ndarray) -> np.ndarray:
    """Feature rows (..., K, 6) sorted per sample by (dD, dN, dE, dvN, dvE, dvD)."""
    keys = (feats[..., 5], feats[..., 4], feats[..., 3], feats[..., 1], feats[..., 0], feats[..., 2])
    order = np.lexsort(keys, axis=-1)
    return np.take_along_axis(feats, order[..., None], axis=-2)


def relative_features(states: np.ndarray) -> np.ndarray:
    """Canonically ordered relative features (..., K, 6) of a state batch (..., K+1, 7)."""
    states = np.asarray(states, dtype=float)
    return canonical_order(states[..., 1:, :6] - states[..., :1, :6])


def separations(states: np.ndarray) -> np.ndarray:
    """Distance (..., K) of each neighbour from the sufferer."""
    return np.linalg.norm(states[..., 1:, :3] - states[..., :1, :3], axis=-1)


def _frozen_vector(values, n: int, name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite, got {vec}")
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class VehicleState:
    """Position (m), velocity (m/s) and yaw (rad) of one multirotor, NED frame."""

    position: np.ndarray
    velocity: np.ndarray
    yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_vector(self.position, 3, "position"))
        object.__setattr__(self, "velocity", _frozen_vector(self.velocity, 3, "velocity"))
        if not np.isfinite(self.yaw):
            raise ValueError(f"yaw must be finite, got {self.yaw}")
        object.__setattr__(self, "yaw", float(self.yaw))


@dataclass(frozen=True)
class Wrench6:
    """6-DOF force/torque reading: forces in N, torques in N*m.

    Component order is ``WRENCH_AXES``: N/E/D forces, then pitch (about E),
    roll (about N) and yaw (about D) torques.
    """

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen_vector(self.vec, 6, "wrench"))


@dataclass(frozen=True)
class FormationSnapshot:
    """The sufferer plus its K neighbours at one instant: a batch of one.

    K may be zero.  No neighbour may coincide with the sufferer position
    (minimum separation ``MIN_SEPARATION``).
    """

    sufferer: VehicleState
    neighbours: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "neighbours", tuple(self.neighbours))
        for idx, sep in enumerate(separations(self.states())):
            if sep <= MIN_SEPARATION:
                raise ValueError(
                    f"neighbour {idx} coincides with the sufferer (separation {sep:.2e} m)"
                )

    def states(self) -> np.ndarray:
        """State rows (K+1, 7): the sufferer, then the neighbours in listed order."""
        return np.array([[*s.position, *s.velocity, s.yaw] for s in (self.sufferer, *self.neighbours)])

    def features(self) -> np.ndarray:
        """Canonically ordered relative features (K, 6)."""
        return relative_features(self.states())
