import numpy as np
import pytest

from downwash.core import FormationSnapshot
from downwash.dataset import Dataset
from downwash.field import DownwashParams, NoiseParams, single_vehicle_wrench
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.mlp import Mlp
from downwash.models import (
    DeepSetModel,
    GridLookupModel,
    LinearAggModel,
    fit_grid,
    load_model,
    save_model,
    segment_sum,
)

from conftest import make_state, random_snapshot


def singleton(snap, i):
    return FormationSnapshot(snap.sufferer, (snap.neighbours[i],))


def test_snapshot_features_canonical_order(rng):
    snap = random_snapshot(rng, 4)
    perm = rng.permutation(4)
    shuffled = FormationSnapshot(snap.sufferer, tuple(snap.neighbours[i] for i in perm))
    np.testing.assert_array_equal(snap.features(), shuffled.features())


def test_linear_k0_predicts_zero(rng):
    model = LinearAggModel.initialised(rng)
    out = model.predict(FormationSnapshot(make_state((0, 0, 0))))
    np.testing.assert_array_equal(out.vec, np.zeros(6))


def test_linear_k2_is_sum_of_k1_predictions(rng):
    model = LinearAggModel.initialised(rng)
    snap = random_snapshot(rng, 2)
    whole = model.predict(snap)
    parts = model.predict(singleton(snap, 0)).vec + model.predict(singleton(snap, 1)).vec
    np.testing.assert_allclose(whole.vec, parts, atol=1e-12)


def test_linear_matches_brute_force_summation(rng):
    model = LinearAggModel.initialised(rng)
    for _ in range(50):
        snap = random_snapshot(rng, 3)
        brute = np.zeros(6)
        for row in snap.features():
            brute = brute + model.psi.forward(row)
        np.testing.assert_allclose(model.predict(snap).vec, brute, atol=1e-12)


def test_deepset_bitwise_permutation_invariance(rng):
    model = DeepSetModel.initialised(rng)
    for _ in range(20):
        snap = random_snapshot(rng, 4)
        perm = rng.permutation(4)
        shuffled = FormationSnapshot(snap.sufferer, tuple(snap.neighbours[i] for i in perm))
        assert np.array_equal(model.predict(snap).vec, model.predict(shuffled).vec)


def test_deepset_duplicate_neighbour_doubles_embedding(rng):
    model = DeepSetModel.initialised(rng)
    snap1 = random_snapshot(rng, 1)
    snap2 = FormationSnapshot(snap1.sufferer, (snap1.neighbours[0], snap1.neighbours[0]))
    e1 = segment_sum(model.phi.forward(snap1.features()), np.array([1]))
    e2 = segment_sum(model.phi.forward(snap2.features()), np.array([2]))
    np.testing.assert_allclose(e2, 2 * e1, rtol=1e-12)
    # the decoded output is nonlinear in the embedding, so it does not double
    assert not np.allclose(model.predict(snap2).vec, 2 * model.predict(snap1).vec, rtol=1e-3)


def test_deepset_affine_composition_closed_form(rng):
    # single affine layers compose to one affine map: y = (x W1 + b1) W2 + b2
    phi = Mlp.initialised([6, 4], rng)
    dec = Mlp.initialised([4, 6], rng)
    model = DeepSetModel(phi, dec)
    snap = random_snapshot(rng, 1)
    x = snap.features()[0]
    expected = (x @ phi.weights[0] + phi.biases[0]) @ dec.weights[0] + dec.biases[0]
    np.testing.assert_allclose(model.predict(snap).vec, expected, atol=1e-13)


def test_deepset_k0_is_decoder_of_zero(rng):
    model = DeepSetModel.initialised(rng)
    out = model.predict(FormationSnapshot(make_state((0, 0, 0))))
    np.testing.assert_array_equal(out.vec, model.big_phi.forward(np.zeros(model.phi.d_out)))


def test_deepset_k0_forward_is_decoder_of_zero(rng):
    model = DeepSetModel.initialised(rng)
    pred, _ = model.forward(np.zeros((0, 6)), np.zeros(1, dtype=np.int64))
    np.testing.assert_array_equal(pred[0], model.big_phi.forward(np.zeros(model.phi.d_out)))


def test_segment_sum_runs_left_to_right():
    rows = np.array([[1e16], [-1e16], [1.0]])
    assert segment_sum(rows, np.array([3]))[0, 0] == 1.0
    # np.add.reduceat sums this segment as a + (b + c), losing the 1.0
    assert np.add.reduceat(rows, [0])[0, 0] == 0.0
    # a uniform batch pools to the bytes of sum(axis=1), signed zeros included
    uniform = np.array([[-0.0, 1e16], [-0.0, -1e16], [0.5, 1.0], [-0.0, 3.0], [-0.0, 0.1], [-0.0, 0.2]])
    expected = uniform.reshape(2, 3, 2).sum(axis=1)
    assert segment_sum(uniform, np.array([3, 3])).tobytes() == expected.tobytes()


def test_segment_sum_of_a_sample_does_not_depend_on_its_batch(rng):
    counts = np.array([3, 0, 1, 3, 0, 1, 3])
    rows = rng.normal(size=(counts.sum(), 64))
    pooled = segment_sum(rows, counts)
    starts = np.cumsum(counts) - counts
    for i, (start, count) in enumerate(zip(starts, counts)):
        alone = segment_sum(rows[start : start + count], counts[i : i + 1])
        np.testing.assert_array_equal(pooled[i], alone[0])
    assert np.all(pooled[counts == 0] == 0.0)


def test_ragged_forward_matches_per_snapshot_predictions(rng):
    # one mixed K=0/1/3 batch through forward agrees with each snapshot
    # predicted alone; only BLAS blocking over the batch size may differ
    snaps = [random_snapshot(rng, k) for k in (3, 0, 1, 3, 1, 0)]
    rows = np.concatenate([s.features() for s in snaps])
    counts = np.array([len(s.neighbours) for s in snaps])
    for model in (LinearAggModel.initialised(rng), DeepSetModel.initialised(rng)):
        pred, _ = model.forward(rows, counts)
        for snap, row in zip(snaps, pred):
            np.testing.assert_allclose(row, model.predict(snap).vec, rtol=0, atol=1e-12)


def test_deepset_not_additive_in_general(rng):
    model = DeepSetModel.initialised(rng)
    snap = random_snapshot(rng, 2)
    whole = model.predict(snap).vec
    parts = model.predict(singleton(snap, 0)).vec + model.predict(singleton(snap, 1)).vec
    assert not np.allclose(whole, parts, atol=1e-6)


def _uniform_grid_model(rng, nn=4, ne=5, nd=3):
    values = rng.uniform(-2, 2, (nn, ne, nd, 6))
    return GridLookupModel([(-1.0, 1.0), (-1.0, 1.0), (-1.5, 0.0)], values)


def test_grid_query_exact_at_cell_centres(rng):
    model = _uniform_grid_model(rng)
    for axis_cells, (lo, hi), ax in zip(model.values.shape[:3], model.bounds, range(3)):
        h = (hi - lo) / axis_cells
        centres = [lo + (i + 0.5) * h for i in range(axis_cells)]
        assert centres  # sanity
    # check every cell centre returns the stored value exactly
    for i in range(model.values.shape[0]):
        for j in range(model.values.shape[1]):
            for k in range(model.values.shape[2]):
                q = [
                    model.bounds[0][0] + (i + 0.5) * (2.0 / 4),
                    model.bounds[1][0] + (j + 0.5) * (2.0 / 5),
                    model.bounds[2][0] + (k + 0.5) * (1.5 / 3),
                ]
                np.testing.assert_allclose(model.query(q), model.values[i, j, k], atol=1e-12)


def _scalar_query(model, x):
    """Trilinear lookup at one position, corner by corner: the reference for ``query``."""
    if any(v < lo or v > hi for v, (lo, hi) in zip(x, model.bounds)):
        return np.zeros(6)
    idx0, frac = [], []
    for v, (lo, hi), n in zip(x, model.bounds, model.values.shape[:3]):
        u = (v - lo) / ((hi - lo) / n) - 0.5
        i = min(max(int(np.floor(u)), 0), max(n - 2, 0))
        idx0.append(i)
        frac.append(min(max(u - i, 0.0), 1.0) if n > 1 else 0.0)
    out = np.zeros(6)
    for corner in range(8):
        bits = [(corner >> ax) & 1 for ax in range(3)]
        ii = [min(i + b, n - 1) for i, b, n in zip(idx0, bits, model.values.shape[:3])]
        weight = np.prod([f if b else 1.0 - f for f, b in zip(frac, bits)])
        out += weight * model.values[ii[0], ii[1], ii[2]]
    return out


@pytest.mark.parametrize("shape", [(4, 5, 3), (1, 6, 2), (3, 1, 1)])
def test_grid_query_matches_scalar_reference(rng, shape):
    model = _uniform_grid_model(rng, *shape)
    points = rng.uniform([-1.2, -1.2, -1.7], [1.2, 1.2, 0.2], (400, 3))
    points[:20] = np.array(model.bounds)[np.arange(3), rng.integers(0, 2, (20, 3))]  # on the bounds
    expected = np.stack([_scalar_query(model, x) for x in points])
    np.testing.assert_allclose(model.query(points), expected, rtol=1e-12, atol=1e-12)
    batched = model.query(points.reshape(20, 20, 3))
    np.testing.assert_allclose(batched, expected.reshape(20, 20, 6), rtol=1e-12, atol=1e-12)


def test_grid_query_outside_bounds_is_zero(rng):
    model = _uniform_grid_model(rng)
    np.testing.assert_array_equal(model.query([1.2, 0.0, -0.5]), np.zeros(6))
    np.testing.assert_array_equal(model.query([0.0, 0.0, 0.5]), np.zeros(6))


def test_grid_predict_sums_neighbours(rng):
    model = _uniform_grid_model(rng)
    for _ in range(50):
        snap = random_snapshot(rng, 2)
        whole = model.predict(snap).vec
        parts = model.predict(singleton(snap, 0)).vec + model.predict(singleton(snap, 1)).vec
        np.testing.assert_allclose(whole, parts, atol=1e-12)


def test_grid_predict_neighbour_outside_contributes_zero(rng):
    model = _uniform_grid_model(rng)
    inside = make_state((0.1, 0.2, -0.7))
    outside = make_state((5.0, 0.0, -0.7))
    both = FormationSnapshot(make_state((0, 0, 0)), (inside, outside))
    only = FormationSnapshot(make_state((0, 0, 0)), (inside,))
    np.testing.assert_array_equal(model.predict(both).vec, model.predict(only).vec)


def _k1_dataset(noiseless=False, legs=24, samples=120):
    noise = NoiseParams(0.0, 0.0, seed=3) if noiseless else NoiseParams(seed=3)
    cfg = SweepConfig(legs=legs, samples_per_leg=samples, altitudes=(0.3, 0.8))
    return generate_sweep(Formation(FormationKind.SIDE_BY_SIDE, 1), cfg, "additive", DownwashParams(), noise=noise)


def _k1_arrays(dpos, measured):
    """A K=1 dataset with the sufferer at the origin and the given neighbour positions."""
    n = len(measured)
    states = np.zeros((n, 2, 7))
    states[:, 1, :3] = dpos
    return Dataset(np.zeros(n), states, np.zeros((n, 6)), np.asarray(measured, dtype=float), {})


def test_fit_grid_single_cell_stores_mean():
    data = _k1_arrays([0.0, 0.0, -1.0], [np.full(6, 1.0), np.full(6, 3.0)])
    model = fit_grid(data, resolution=(1, 1, 1))
    np.testing.assert_allclose(model.values[0, 0, 0], np.full(6, 2.0))


def test_fit_grid_rejects_wrong_k_and_empty():
    with pytest.raises(ValueError, match="empty"):
        fit_grid(_k1_arrays(np.zeros((0, 3)), np.zeros((0, 6))))
    states = np.zeros((1, 3, 7))
    states[0, 1:, :3] = [[0, 0, -1], [0, 0.5, -1]]
    data = Dataset(np.zeros(1), states, np.zeros((1, 6)), np.zeros((1, 6)), {})
    with pytest.raises(ValueError, match="K=1"):
        fit_grid(data)


def test_fit_grid_noiseless_matches_oracle_on_support():
    data = _k1_dataset(noiseless=True)
    model = fit_grid(
        data,
        resolution=(24, 40, 2),
        lateral_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        vertical_bounds=(-1.05, -0.05),
    )
    p = DownwashParams()
    dpos = data.states[::5, 1, :3] - data.states[::5, 0, :3]
    worst = float(np.max(np.abs(model.query(dpos) - single_vehicle_wrench(dpos, p))))
    assert worst < 0.05 * p.peak_force


def test_model_serialization_round_trip(tmp_path, rng):
    models = {
        "linear.json": LinearAggModel.initialised(rng, hidden=(8, 8)),
        "deepset.json": DeepSetModel.initialised(rng, embed_dim=8, phi_hidden=(8,), decoder_hidden=(8,)),
        "grid.json": _uniform_grid_model(rng),
    }
    snap = random_snapshot(rng, 3)
    for name, model in models.items():
        model.metadata["note"] = "round-trip"
        path = tmp_path / name
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.predict(snap).vec, loaded.predict(snap).vec)
        path2 = tmp_path / ("re_" + name)
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a downwash model"):
        load_model(path)
