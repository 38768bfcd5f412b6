import numpy as np
import pytest

from downwash.core import (
    WRENCH_AXES,
    FormationSnapshot,
    VehicleState,
    Wrench6,
    canonical_order,
    relative_features,
)


def make_state(pos, vel=(0.0, 0.0, 0.0), yaw=0.0) -> VehicleState:
    return VehicleState(position=np.asarray(pos, dtype=float), velocity=np.asarray(vel, dtype=float), yaw=yaw)


def state_row(pos, vel=(0.0, 0.0, 0.0)) -> np.ndarray:
    """One state row (7,): position, velocity, zero yaw."""
    return np.array([*pos, *vel, 0.0], dtype=float)


def relative_state(neighbour: np.ndarray, sufferer: np.ndarray) -> np.ndarray:
    """The (dN, dE, dD, dvN, dvE, dvD) row of one neighbour, via the batch primitive."""
    return relative_features(np.stack([sufferer, neighbour])[None])[0, 0]


def test_relative_state_simple_offset():
    rel = relative_state(state_row((0, 0, -1)), state_row((0, 0, 0)))
    assert np.array_equal(rel[:3], [0, 0, -1])
    assert np.array_equal(rel[3:], [0, 0, 0])


def test_relative_state_zero_for_identical_states():
    a = state_row((1.0, -2.0, 0.5), vel=(0.1, 0.2, 0.3))
    rel = relative_state(a, a)
    assert np.array_equal(rel, np.zeros(6))


def test_relative_state_componentwise():
    rel = relative_state(state_row((1, 2, -1), vel=(0, 0.5, 0)), state_row((0, 0, 0)))
    assert np.array_equal(rel[:3], [1, 2, -1])
    assert np.array_equal(rel[3:], [0, 0.5, 0])


def test_relative_state_antisymmetry(rng):
    pairs = np.array(
        [[state_row(rng.uniform(-5, 5, 3), vel=rng.uniform(-2, 2, 3)) for _ in "ab"] for _ in range(200)]
    )
    # each pair once with a as the sufferer, once with b
    assert np.array_equal(relative_features(pairs)[:, 0], -relative_features(pairs[:, ::-1])[:, 0])


def test_canonical_order_sorts_by_d_then_n_e_and_velocity(rng):
    feats = rng.integers(-1, 2, (50, 4, 6)).astype(float)
    ordered = canonical_order(feats)
    for before, after in zip(feats, ordered):
        keys = [(r[2], r[0], r[1], r[3], r[4], r[5]) for r in after]
        assert keys == sorted(keys)
        assert sorted(map(tuple, before)) == sorted(map(tuple, after))


def test_wrench_component_accessors():
    w = Wrench6(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert WRENCH_AXES == ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")
    assert w.vec[WRENCH_AXES.index("f_d")] == 3.0


def test_nonfinite_values_rejected():
    with pytest.raises(ValueError):
        Wrench6(np.array([1.0, np.nan, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        VehicleState(position=np.array([np.inf, 0, 0]), velocity=np.zeros(3))
    with pytest.raises(ValueError):
        make_state((0, 0, 0), yaw=float("nan"))


def test_snapshot_rejects_coincident_neighbour():
    sufferer = make_state((0, 0, 0))
    with pytest.raises(ValueError, match="coincides"):
        FormationSnapshot(sufferer, (make_state((0, 0, 1e-9)),))


def test_snapshot_k_zero_is_valid():
    snap = FormationSnapshot(make_state((0, 0, 0)))
    assert len(snap.neighbours) == 0
    assert snap.features().shape == (0, 6)


def test_core_values_are_immutable():
    state = make_state((1, 2, 3))
    with pytest.raises(ValueError):
        state.position[0] = 9.0
