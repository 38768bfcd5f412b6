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

from conftest import make_state


def relative_state(neighbour: VehicleState, sufferer: VehicleState) -> np.ndarray:
    """The (dN, dE, dD, dvN, dvE, dvD) row of one neighbour, via the batch primitive."""
    states = np.array([[*s.position, *s.velocity, s.yaw] for s in (sufferer, neighbour)])
    return relative_features(states[None])[0, 0]


def test_relative_state_simple_offset():
    rel = relative_state(make_state((0, 0, -1)), make_state((0, 0, 0)))
    assert np.array_equal(rel[:3], [0, 0, -1])
    assert np.array_equal(rel[3:], [0, 0, 0])


def test_relative_state_zero_for_identical_states():
    a = make_state((1.0, -2.0, 0.5), vel=(0.1, 0.2, 0.3))
    rel = relative_state(a, a)
    assert np.array_equal(rel, np.zeros(6))


def test_relative_state_componentwise():
    neighbour = make_state((1, 2, -1), vel=(0, 0.5, 0))
    sufferer = make_state((0, 0, 0))
    rel = relative_state(neighbour, sufferer)
    assert np.array_equal(rel[:3], [1, 2, -1])
    assert np.array_equal(rel[3:], [0, 0.5, 0])


def test_relative_state_antisymmetry(rng):
    for _ in range(200):
        a = make_state(rng.uniform(-5, 5, 3), vel=rng.uniform(-2, 2, 3))
        b = make_state(rng.uniform(-5, 5, 3), vel=rng.uniform(-2, 2, 3))
        assert np.array_equal(relative_state(a, b), -relative_state(b, a))


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
