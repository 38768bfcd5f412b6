import numpy as np
import pytest

from downwash.core import WRENCH_AXES, FormationSnapshot, VehicleState, Wrench6, relative_state

from conftest import make_state


def test_relative_state_simple_offset():
    rel = relative_state(make_state((0, 0, -1)), make_state((0, 0, 0)))
    assert np.array_equal(rel.dpos, [0, 0, -1])
    assert np.array_equal(rel.dvel, [0, 0, 0])


def test_relative_state_zero_for_identical_states():
    a = make_state((1.0, -2.0, 0.5), vel=(0.1, 0.2, 0.3))
    rel = relative_state(a, a)
    assert np.array_equal(rel.dpos, [0, 0, 0])
    assert np.array_equal(rel.dvel, [0, 0, 0])


def test_relative_state_componentwise():
    neighbour = make_state((1, 2, -1), vel=(0, 0.5, 0))
    sufferer = make_state((0, 0, 0))
    rel = relative_state(neighbour, sufferer)
    assert np.array_equal(rel.dpos, [1, 2, -1])
    assert np.array_equal(rel.dvel, [0, 0.5, 0])


def test_relative_state_antisymmetry(rng):
    for _ in range(200):
        a = make_state(rng.uniform(-5, 5, 3), vel=rng.uniform(-2, 2, 3))
        b = make_state(rng.uniform(-5, 5, 3), vel=rng.uniform(-2, 2, 3))
        ab = relative_state(a, b)
        ba = relative_state(b, a)
        assert np.array_equal(ab.dpos, -ba.dpos)
        assert np.array_equal(ab.dvel, -ba.dvel)


def test_wrench_add_identity_and_commutativity(rng):
    zero = Wrench6.zero()
    for _ in range(100):
        a = Wrench6(rng.uniform(-10, 10, 6))
        b = Wrench6(rng.uniform(-10, 10, 6))
        assert np.array_equal((a + zero).vec, a.vec)
        assert np.array_equal((a + b).vec, (b + a).vec)


def test_wrench_add_associative_to_tolerance(rng):
    for _ in range(200):
        a, b, c = (Wrench6(rng.uniform(-100, 100, 6)) for _ in range(3))
        lhs = ((a + b) + c).vec
        rhs = (a + (b + c)).vec
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_wrench_component_accessors():
    w = Wrench6(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    assert WRENCH_AXES == ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")
    assert w.f_d == 3.0 and isinstance(w.f_d, float)


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
    assert snap.k == 0
    assert snap.relative_states() == []


def test_core_values_are_immutable():
    state = make_state((1, 2, 3))
    with pytest.raises(ValueError):
        state.position[0] = 9.0
