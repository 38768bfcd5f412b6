"""Formation geometries and grid-sweep trajectory datasets.

The sufferer sits fixed at the origin (emulating a load-stand vehicle); a
rigid formation of K neighbours flies straight E-aligned legs over a square
lateral area at a set of relative altitudes, and each sampled instant is
paired with a ground-truth wrench from one of the aggregation oracles plus
a noisy measurement.

Every position of the formation is given by its lateral centroid:
:func:`formation_states` maps centroids (m, 2) at an altitude to a state
batch (m, K+1, 7), and :func:`centroid_features` to the feature batch
(m, K, 6) that oracles and models take.  Sweep generation and every
evaluation grid go through it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import relative_features
from .dataset import Dataset
from .field import DownwashParams, MergeParams, NoiseParams, add_noise, make_oracle


class FormationKind(enum.Enum):
    SIDE_BY_SIDE = "side_by_side"      # abreast, perpendicular to travel
    LEADER_FOLLOWER = "leader_follower"  # in trail, along travel
    STACK = "stack"                    # distinct altitude planes
    HYBRID3 = "hybrid3"                # equilateral triangle, one plane


@dataclass(frozen=True)
class Formation:
    """A formation kind with its member count and spacing."""

    kind: FormationKind
    k: int
    spacing: float = 0.5

    def __post_init__(self):
        formation_offsets(self.kind, self.k, self.spacing)  # validates kind, k and spacing

    def label(self) -> str:
        return f"{self.kind.value}_k{self.k}"


@dataclass(frozen=True)
class SweepConfig:
    """Grid-sweep exploration settings.

    Defaults mirror a 2 m square lateral area explored 1.4 m above the
    sufferer at 0.5 m/s in 36 straight legs per altitude.
    """

    lateral_extent: float = 2.0
    vertical_extent: float = 1.4
    speed: float = 0.5
    legs: int = 36
    samples_per_leg: int = 200
    spacing: float = 0.5
    altitudes: tuple[float, ...] = (0.3, 0.8, 1.3)

    def __post_init__(self):
        object.__setattr__(self, "altitudes", tuple(float(a) for a in self.altitudes))
        if min(self.lateral_extent, self.vertical_extent, self.speed, self.spacing) <= 0:
            raise ValueError("extents, speed and spacing must be > 0")
        if self.legs < 1 or self.samples_per_leg < 1:
            raise ValueError("legs and samples_per_leg must be >= 1")
        if not self.altitudes or any(a <= 0 or a > self.vertical_extent for a in self.altitudes):
            raise ValueError("altitudes must lie in (0, vertical_extent]")


def formation_offsets(kind: FormationKind, k: int, spacing: float) -> np.ndarray:
    """Member offsets (k, 3) relative to the formation centroid, zero lateral mean.

    Side-by-side spreads along N (perpendicular to the E-aligned travel),
    leader-follower along E, the stack along D with lateral steps of
    spacing/2 so each lower member sits at the edge of the column above it,
    and hybrid3 is an equilateral triangle of side ``spacing`` in one plane.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    centred = np.arange(k) - (k - 1) / 2.0
    offsets = np.zeros((k, 3))
    if kind is FormationKind.SIDE_BY_SIDE:
        offsets[:, 0] = centred * spacing
    elif kind is FormationKind.LEADER_FOLLOWER:
        offsets[:, 1] = centred * spacing
    elif kind is FormationKind.STACK:
        offsets[:, 0] = centred * (spacing / 2.0)
        offsets[:, 2] = centred * spacing
    elif kind is FormationKind.HYBRID3:
        if k != 3:
            raise ValueError(f"hybrid3 requires k=3, got k={k}")
        rho = spacing / math.sqrt(3.0)
        offsets[0] = (rho, 0.0, 0.0)
        offsets[1] = (-rho / 2.0, spacing / 2.0, 0.0)
        offsets[2] = (-rho / 2.0, -spacing / 2.0, 0.0)
    else:
        raise ValueError(f"unknown formation kind {kind!r}")
    return offsets


def formation_states(formation: Formation, centroids, altitude, speed: float) -> np.ndarray:
    """State batch (m, K+1, 7) of the formation centred at each lateral
    centroid (m, 2) at D = -altitude, moving along +E at ``speed``.

    ``altitude`` is a scalar or one value per centroid.  The sufferer rests
    at the origin; neighbours are listed in :func:`formation_offsets` order.
    """
    centroids = np.asarray(centroids, dtype=float)
    offsets = formation_offsets(formation.kind, formation.k, formation.spacing)
    states = np.zeros((len(centroids), formation.k + 1, 7))
    states[:, 1:, :2] = centroids[:, None, :] + offsets[:, :2]
    states[:, 1:, 2] = -np.reshape(altitude, (-1, 1)) + offsets[:, 2]
    states[:, 1:, 4] = speed
    return states


def centroid_features(formation: Formation, centroids, altitude, speed: float) -> np.ndarray:
    """Canonically ordered relative features (m, K, 6) of :func:`formation_states`."""
    return relative_features(formation_states(formation, centroids, altitude, speed))


def midpoints(extent: float, count: int) -> np.ndarray:
    """Centres of ``count`` equal cells across [-extent/2, extent/2] (the leg
    positions and evaluation grid axes); legs=1 flies straight over the centre."""
    return -extent / 2.0 + (np.arange(count) + 0.5) * (extent / count)


def generate_sweep(
    formation: Formation,
    cfg: SweepConfig,
    oracle_kind: str,
    params: DownwashParams,
    merge: MergeParams | None = None,
    noise: NoiseParams | None = None,
) -> Dataset:
    """Fly the sweep and return the sampled dataset.

    For each altitude and each leg the formation centroid crosses the
    lateral extent along +E at ``cfg.speed``; legs sit on a uniform N grid.
    Ground truth comes from the chosen oracle; the noisy measurement adds
    seeded Gaussian noise drawn by :func:`downwash.rng.normal_rows`, one
    Philox key per chunk of 4096 rows, so row i's noise depends only on
    (seed, i).
    Sample order is canonical: altitude, then leg, then sample.
    """
    noise = noise if noise is not None else NoiseParams()
    oracle = make_oracle(oracle_kind, params, merge)
    half = cfg.lateral_extent / 2.0
    duration = cfg.lateral_extent / cfg.speed
    if cfg.samples_per_leg > 1:
        times = np.arange(cfg.samples_per_leg) * (duration / (cfg.samples_per_leg - 1))
    else:
        times = np.zeros(1)
    leg_ns = midpoints(cfg.lateral_extent, cfg.legs)
    # one plane of centroids, leg-major; the planes stacked in altitude order
    plane = np.stack(np.broadcast_arrays(leg_ns[:, None], -half + cfg.speed * times), axis=-1)
    plane = plane.reshape(-1, 2)
    planes = len(cfg.altitudes)
    states = formation_states(
        formation, np.tile(plane, (planes, 1)), np.repeat(cfg.altitudes, len(plane)), cfg.speed
    )
    truth = oracle(relative_features(states))

    metadata = {
        "kind": formation.kind.value,
        "k": formation.k,
        "spacing": formation.spacing,
        "oracle": oracle_kind,
        "field_params": vars(params).copy(),
        "merge_params": vars(merge).copy() if merge is not None else None,
        "noise_params": {"sigma_force": noise.sigma_force, "sigma_torque": noise.sigma_torque},
        "seed": noise.seed,
        "sweep": {**vars(cfg), "altitudes": list(cfg.altitudes)},
    }
    return Dataset(np.tile(times, planes * cfg.legs), states, truth, add_noise(truth, noise), metadata)

