import numpy as np
import pytest

from downwash.field import DownwashParams, NoiseParams, make_oracle, single_vehicle_wrench
from downwash.formations import (
    Formation,
    FormationKind,
    SweepConfig,
    formation_offsets,
    generate_sweep,
    snapshot_at,
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
    for rec in data.records:
        for nb in rec.snapshot.neighbours:
            np.testing.assert_array_equal(nb.velocity, [0.0, 0.5, 0.0])
        np.testing.assert_array_equal(rec.snapshot.sufferer.position, np.zeros(3))
    # single centred leg spans the extent along E
    es = [rec.snapshot.neighbours[0].position[1] for rec in data.records[:3]]
    np.testing.assert_allclose(es, [-1.0, 0.0, 1.0])


def test_generate_sweep_full_default_enumeration():
    cfg = SweepConfig(legs=4, samples_per_leg=5, altitudes=(0.3, 0.8, 1.3))
    data = generate_sweep(Formation(FormationKind.LEADER_FOLLOWER, 3), cfg, "additive", P)
    assert len(data) == 4 * 5 * 3
    # leg N positions form a uniform midpoint grid over the extent
    ns = sorted({rec.snapshot.neighbours[0].position[0] for rec in data.records})
    np.testing.assert_allclose(ns, [-0.75, -0.25, 0.25, 0.75])
    # rigid formation: every member moves at the leg speed
    speeds = {tuple(nb.velocity) for rec in data.records for nb in rec.snapshot.neighbours}
    assert speeds == {(0.0, 0.5, 0.0)}


def test_generate_sweep_deterministic():
    cfg = SweepConfig(legs=2, samples_per_leg=4, altitudes=(0.8,))
    noise = NoiseParams(seed=11)
    a = generate_sweep(Formation(FormationKind.STACK, 2), cfg, "merging", P, noise=noise)
    b = generate_sweep(Formation(FormationKind.STACK, 2), cfg, "merging", P, noise=noise)
    assert a.metadata == b.metadata
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.measured.vec, rb.measured.vec)
        assert np.array_equal(ra.truth.vec, rb.truth.vec)


def grid_slice(formation, altitude, extent, resolution, oracle_kind, params):
    """Noiseless oracle wrenches on an n-major lateral grid of centroid positions."""
    oracle = make_oracle(oracle_kind, params)
    axis = np.linspace(-extent / 2.0, extent / 2.0, resolution)
    return [
        ((float(n), float(e)), oracle(snapshot_at(formation, float(n), float(e), altitude)))
        for n in axis
        for e in axis
    ]


def test_grid_slice_k1_delegates_to_single_vehicle():
    formation = Formation(FormationKind.SIDE_BY_SIDE, 1)
    points = grid_slice(formation, 0.8, 2.0, 3, "additive", P)
    for (n, e), wrench in points:
        snap = snapshot_at(formation, n, e, 0.8)
        expected = single_vehicle_wrench(snap.relative_states()[0], P)
        assert np.array_equal(wrench.vec, expected.vec)


def test_grid_slice_merging_support_smaller_than_additive():
    formation = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
    additive = grid_slice(formation, 1.3, 2.0, 41, "additive", P)
    merging = grid_slice(formation, 1.3, 2.0, 41, "merging", P)
    fa = np.array([w.f_d for _, w in additive])
    fm = np.array([w.f_d for _, w in merging])
    assert np.count_nonzero(fm >= 0.5 * fm.max()) < np.count_nonzero(fa >= 0.5 * fa.max())
