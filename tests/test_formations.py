import numpy as np
import pytest

from downwash.field import DownwashParams, NoiseParams, make_oracle, single_vehicle_wrench
from downwash.formations import (
    Formation,
    FormationKind,
    SweepConfig,
    centroid_features,
    formation_offsets,
    generate_sweep,
)

P = DownwashParams()
ALL_KINDS = [
    (FormationKind.SIDE_BY_SIDE, 3),
    (FormationKind.LEADER_FOLLOWER, 3),
    (FormationKind.STACK, 4),
    (FormationKind.HYBRID3, 3),
]


def test_leader_follower_offsets_match_half_metre_spacing():
    offsets = formation_offsets(FormationKind.LEADER_FOLLOWER, 3, 0.5)
    np.testing.assert_array_equal(offsets[:, 1], [-0.5, 0.0, 0.5])
    assert np.all(offsets[:, 0] == 0) and np.all(offsets[:, 2] == 0)


def test_side_by_side_single_vehicle_is_zero_offset():
    offsets = formation_offsets(FormationKind.SIDE_BY_SIDE, 1, 0.5)
    np.testing.assert_array_equal(offsets, [[0.0, 0.0, 0.0]])


def test_side_by_side_spreads_across_track():
    offsets = formation_offsets(FormationKind.SIDE_BY_SIDE, 2, 0.4)
    np.testing.assert_allclose(offsets[:, 0], [-0.2, 0.2])
    assert np.all(offsets[:, 1:] == 0)


def test_hybrid3_is_equilateral():
    offsets = formation_offsets(FormationKind.HYBRID3, 3, 0.5)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(offsets[i] - offsets[j]) == pytest.approx(0.5, abs=1e-12)
    assert np.all(offsets[:, 2] == 0)


def test_hybrid3_requires_three_vehicles():
    with pytest.raises(ValueError, match="hybrid3"):
        formation_offsets(FormationKind.HYBRID3, 2, 0.5)


def test_stack_layers_and_lateral_steps():
    offsets = formation_offsets(FormationKind.STACK, 3, 0.5)
    np.testing.assert_allclose(np.diff(offsets[:, 2]), 0.5)   # one plane per spacing
    np.testing.assert_allclose(np.diff(offsets[:, 0]), 0.25)  # lateral step spacing/2


@pytest.mark.parametrize("kind,k", ALL_KINDS)
def test_offsets_have_zero_lateral_mean(kind, k):
    offsets = formation_offsets(kind, k, 0.5)
    assert offsets[:, 0].mean() == 0.0
    assert offsets[:, 1].mean() == 0.0


def test_invalid_counts_rejected():
    with pytest.raises(ValueError):
        formation_offsets(FormationKind.SIDE_BY_SIDE, 0, 0.5)
    with pytest.raises(ValueError):
        formation_offsets(FormationKind.SIDE_BY_SIDE, 2, -0.1)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(legs=0)
    with pytest.raises(ValueError):
        SweepConfig(altitudes=(0.3, 2.0))  # above vertical extent
    with pytest.raises(ValueError):
        SweepConfig(speed=-1.0)


def test_generate_sweep_counts_and_velocities():
    cfg = SweepConfig(legs=1, samples_per_leg=3)
    data = generate_sweep(Formation(FormationKind.SIDE_BY_SIDE, 1), cfg, "additive", P)
    assert len(data) == 3 * len(cfg.altitudes)
    assert data.states.shape == (len(data), 2, 7)
    np.testing.assert_array_equal(data.states[:, 1:, 3:6], np.broadcast_to([0.0, 0.5, 0.0], (len(data), 1, 3)))
    np.testing.assert_array_equal(data.states[:, 0], np.zeros((len(data), 7)))
    # single centred leg spans the extent along E
    np.testing.assert_allclose(data.states[:3, 1, 1], [-1.0, 0.0, 1.0])


def test_generate_sweep_full_default_enumeration():
    cfg = SweepConfig(legs=4, samples_per_leg=5, altitudes=(0.3, 0.8, 1.3))
    data = generate_sweep(Formation(FormationKind.LEADER_FOLLOWER, 3), cfg, "additive", P)
    assert len(data) == 4 * 5 * 3
    # leg N positions form a uniform midpoint grid over the extent
    ns = np.unique(data.states[:, 1, 0])
    np.testing.assert_allclose(ns, [-0.75, -0.25, 0.25, 0.75])
    # rigid formation: every member moves at the leg speed
    speeds = {tuple(v) for v in data.states[:, 1:, 3:6].reshape(-1, 3)}
    assert speeds == {(0.0, 0.5, 0.0)}


def test_generate_sweep_deterministic():
    cfg = SweepConfig(legs=2, samples_per_leg=4, altitudes=(0.8,))
    noise = NoiseParams(seed=11)
    a = generate_sweep(Formation(FormationKind.STACK, 2), cfg, "merging", P, noise=noise)
    b = generate_sweep(Formation(FormationKind.STACK, 2), cfg, "merging", P, noise=noise)
    assert a.metadata == b.metadata
    assert np.array_equal(a.measured, b.measured)
    assert np.array_equal(a.truth, b.truth)


def grid_slice(formation, altitude, extent, resolution, oracle_kind, params):
    """Centroids (n-major lateral grid), their features and noiseless oracle wrenches."""
    axis = np.linspace(-extent / 2.0, extent / 2.0, resolution)
    n, e = np.meshgrid(axis, axis, indexing="ij")
    centroids = np.stack([n.ravel(), e.ravel()], axis=-1)
    feats = centroid_features(formation, centroids, altitude, SweepConfig.speed)
    return centroids, feats, make_oracle(oracle_kind, params)(feats)


def test_grid_slice_k1_delegates_to_single_vehicle():
    formation = Formation(FormationKind.SIDE_BY_SIDE, 1)
    centroids, feats, wrenches = grid_slice(formation, 0.8, 2.0, 3, "additive", P)
    np.testing.assert_array_equal(feats[:, 0, :2], centroids)
    assert np.all(feats[:, 0, 2] == -0.8)
    assert np.array_equal(wrenches, single_vehicle_wrench(feats[:, 0, :3], P))


def test_grid_slice_merging_support_smaller_than_additive():
    formation = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
    _, _, additive = grid_slice(formation, 1.3, 2.0, 41, "additive", P)
    _, _, merging = grid_slice(formation, 1.3, 2.0, 41, "merging", P)
    fa = additive[:, 2]
    fm = merging[:, 2]
    assert np.count_nonzero(fm >= 0.5 * fm.max()) < np.count_nonzero(fa >= 0.5 * fa.max())
