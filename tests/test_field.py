import math

import numpy as np
import pytest

from downwash.core import WRENCH_AXES, relative_features
from downwash.field import (
    DownwashParams,
    MergeParams,
    NoiseParams,
    add_noise,
    additive_batch,
    make_oracle,
    merging_batch,
    single_vehicle_wrench,
)
from downwash.formations import Formation, FormationKind, centroid_features
from downwash.rng import normal_rows, stream

P = DownwashParams()
F_N, F_E, F_D, T_PITCH, T_ROLL, T_YAW = (
    WRENCH_AXES.index(axis) for axis in ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")
)


def rel(dn, de, dd):
    """A relative position (dN, dE, dD)."""
    return np.array([dn, de, dd], dtype=float)


# Frozen expected values, evaluated by hand from the closed form with the
# default parameters before this module was written.
FROZEN_SINGLE = {
    (0.1, 0.0, -0.8): [
        -0.06284732250484955,
        -0.0,
        1.4905323565781652,
        -0.029810647131563308,
        0.0,
        0.0,
    ],
    (0.3, 0.0, -1.0): [
        -7.373837416780655e-06,
        -0.0,
        0.008972835524184049,
        -0.0005383701314510429,
        0.0,
        0.0,
    ],
    (-0.05, 0.2, -0.5): [
        0.00047563831258141693,
        -0.0019025532503256677,
        0.19418733064791308,
        0.001941873306479131,
        0.007767493225916524,
        0.0,
    ],
}


def test_single_vehicle_matches_frozen_values():
    for dpos, expected in FROZEN_SINGLE.items():
        w = single_vehicle_wrench(rel(*dpos), P)
        np.testing.assert_allclose(w, expected, rtol=1e-13, atol=0)


def test_on_axis_symmetry():
    w = single_vehicle_wrench(rel(0, 0, -1.0), P)
    assert w[F_D] > 0
    assert w[F_N] == 0 and w[F_E] == 0
    assert w[T_PITCH] == 0 and w[T_ROLL] == 0 and w[T_YAW] == 0


def test_neighbour_below_gives_zero_wrench():
    assert np.array_equal(single_vehicle_wrench(rel(0, 0, 0.5), P), np.zeros(6))
    assert np.array_equal(single_vehicle_wrench(rel(0.1, 0.1, 0.0), P), np.zeros(6))


def test_on_axis_force_strictly_decays_with_height():
    dz = np.linspace(0.05, 3.0, 60)
    forces = single_vehicle_wrench(np.stack([0 * dz, 0 * dz, -dz], axis=-1), P)[:, F_D]
    assert all(a > b for a, b in zip(forces, forces[1:]))


def test_rotational_symmetry(rng):
    for _ in range(50):
        dn, de = rng.uniform(-0.5, 0.5, 2)
        dz = rng.uniform(0.1, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        w0 = single_vehicle_wrench(rel(dn, de, -dz), P)
        w1 = single_vehicle_wrench(rel(c * dn - s * de, s * dn + c * de, -dz), P)
        # forces and torques are NED vectors: both rotate with the offsets
        np.testing.assert_allclose(
            [c * w0[F_N] - s * w0[F_E], s * w0[F_N] + c * w0[F_E]],
            [w1[F_N], w1[F_E]],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            [c * w0[T_ROLL] - s * w0[T_PITCH], s * w0[T_ROLL] + c * w0[T_PITCH]],
            [w1[T_ROLL], w1[T_PITCH]],
            atol=1e-9,
        )
        np.testing.assert_allclose(w0[F_D], w1[F_D], rtol=1e-9)


def features(*neighbours):
    """The feature batch (1, K, 6) of neighbours at rest at the given
    positions (dN, dE, dD) around a sufferer at the origin."""
    states = np.zeros((1, len(neighbours) + 1, 7))
    states[0, 1:, :3] = neighbours
    return relative_features(states)


def test_additive_k0_is_zero():
    assert np.array_equal(additive_batch(np.zeros((1, 0, 6)), P), np.zeros((1, 6)))


def test_additive_k1_equals_single():
    expected = single_vehicle_wrench(rel(0.2, -0.1, -0.9), P)
    assert np.array_equal(additive_batch(features((0.2, -0.1, -0.9)), P)[0], expected)


def test_additive_symmetric_pair_cancels_laterally():
    total = additive_batch(features((0.3, 0, -1.0), (-0.3, 0, -1.0)), P)[0]
    single = single_vehicle_wrench(rel(0.3, 0, -1.0), P)
    assert abs(total[F_N]) < 1e-15
    np.testing.assert_allclose(total[F_D], 2 * single[F_D], rtol=1e-13)


M = MergeParams()


def test_merging_far_separation_equals_additive():
    feats = features((0, -2.5, -1.0), (0, 2.5, -1.0))
    np.testing.assert_allclose(merging_batch(feats, P, M), additive_batch(feats, P), atol=1e-12)


def test_merging_concentrates_force_at_cluster_centre():
    # Evaluate both oracles along a transect of centroid positions: the
    # merged field must peak higher than the additive one and fall below it
    # at the formation edges.
    es = np.linspace(-1.0, 1.0, 401)
    lf3 = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
    feats = centroid_features(lf3, np.stack([np.zeros_like(es), es], axis=-1), 1.3, 0.5)
    merged = merging_batch(feats, P, M)[:, F_D]
    additive = additive_batch(feats, P)[:, F_D]
    assert merged.max() > additive.max()
    # at the edge-column positions the additive model sees full columns
    edge = np.argmin(np.abs(es - 0.5))
    assert merged[edge] < additive[edge]


def test_add_noise_zero_sigma_is_identity(rng):
    w = rng.uniform(-3, 3, (4, 6))
    out = add_noise(w, NoiseParams(sigma_force=0.0, sigma_torque=0.0, seed=3))
    np.testing.assert_array_equal(out, w)


def test_add_noise_deterministic_per_stream():
    w = np.zeros((3, 6))
    n = NoiseParams(seed=99)
    a = add_noise(w, n)
    assert np.array_equal(a, add_noise(w, n))
    assert not np.array_equal(a, add_noise(w, NoiseParams(seed=100)))
    # row i draws from the stream (seed, i)
    scale = np.array([n.sigma_force] * 3 + [n.sigma_torque] * 3)
    for i in range(3):
        assert np.array_equal(a[i], scale * stream(99, i).standard_normal(6))


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 + 3])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_normal_rows_match_fresh_streams_bitwise(seed, n):
    rows = normal_rows(seed, n, 6)
    ref = np.array([stream(seed, i).standard_normal(6) for i in range(n)]).reshape(n, 6)
    assert rows.shape == (n, 6)
    assert rows.tobytes() == ref.tobytes()


def test_add_noise_statistics():
    n = NoiseParams(sigma_force=0.025, sigma_torque=0.005, seed=1234)
    samples = add_noise(np.zeros((100_000, 6)), n)
    force_std = samples[:, :3].std()
    torque_std = samples[:, 3:].std()
    assert abs(force_std - 0.025) < 0.02 * 0.025
    assert abs(torque_std - 0.005) < 0.02 * 0.005
    assert np.all(np.abs(samples.mean(axis=0)) < 5e-4)


def test_param_validation():
    with pytest.raises(ValueError):
        DownwashParams(peak_force=-1.0)
    with pytest.raises(ValueError):
        MergeParams(merge_radius=0.0)
    with pytest.raises(ValueError):
        NoiseParams(sigma_force=-0.1)
    with pytest.raises(ValueError):
        make_oracle("bogus", P)
