"""Frames, vehicle states, wrenches and relative-state computation.

Everything lives in the aerospace North-East-Down (NED) frame: the D axis
points down, so a neighbour hovering *above* the sufferer has a negative
relative D offset.  All types here are immutable values and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Component order used for every 6-DOF wrench throughout the package.
WRENCH_AXES = ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")

# Minimum neighbour/sufferer separation accepted in a snapshot, metres.
MIN_SEPARATION = 1e-6


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
class RelativeState:
    """Neighbour state minus sufferer state: position offset and velocity offset."""

    dpos: np.ndarray
    dvel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dpos", _frozen_vector(self.dpos, 3, "dpos"))
        object.__setattr__(self, "dvel", _frozen_vector(self.dvel, 3, "dvel"))

    def features(self) -> np.ndarray:
        """The 6-dim model input vector: (dN, dE, dD, dvN, dvE, dvD)."""
        return np.concatenate([self.dpos, self.dvel])


@dataclass(frozen=True)
class Wrench6:
    """6-DOF force/torque reading: forces in N, torques in N*m.

    Component order is ``WRENCH_AXES``: N/E/D forces, then pitch (about E),
    roll (about N) and yaw (about D) torques.  Addition is componentwise;
    the zero wrench is the identity.
    """

    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vec", _frozen_vector(self.vec, 6, "wrench"))

    @classmethod
    def zero(cls) -> "Wrench6":
        return cls(np.zeros(6))

    @property
    def f_d(self) -> float:
        return float(self.vec[2])

    def __add__(self, other: "Wrench6") -> "Wrench6":
        return Wrench6(self.vec + other.vec)


@dataclass(frozen=True)
class FormationSnapshot:
    """The sufferer plus its K neighbours at one instant.

    K may be zero.  No neighbour may coincide with the sufferer position
    (minimum separation ``MIN_SEPARATION``).
    """

    sufferer: VehicleState
    neighbours: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "neighbours", tuple(self.neighbours))
        for idx, nb in enumerate(self.neighbours):
            sep = float(np.linalg.norm(nb.position - self.sufferer.position))
            if sep <= MIN_SEPARATION:
                raise ValueError(
                    f"neighbour {idx} coincides with the sufferer (separation {sep:.2e} m)"
                )

    @property
    def k(self) -> int:
        return len(self.neighbours)

    def relative_states(self) -> list:
        return [relative_state(nb, self.sufferer) for nb in self.neighbours]


def relative_state(neighbour: VehicleState, sufferer: VehicleState) -> RelativeState:
    """Relative state of ``neighbour`` as seen from ``sufferer`` (exact subtraction)."""
    return RelativeState(
        dpos=neighbour.position - sufferer.position,
        dvel=neighbour.velocity - sufferer.velocity,
    )
