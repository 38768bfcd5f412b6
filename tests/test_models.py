import json
import re
import tracemalloc

import numpy as np
import pytest

from downwash.core import relative_features
from downwash.dataset import Dataset, FormatError
from downwash.field import DownwashParams, NoiseParams, single_vehicle_wrench
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.mlp import Mlp
from downwash.models import (
    DeepSetModel,
    DeepSetSettings,
    GridLookupModel,
    LinearAggModel,
    LinearSettings,
    fit_grid,
    load_model,
    save_model,
    segment_sum,
)

from conftest import json_swap_fuzz, json_swaps, random_states


def test_snapshot_features_canonical_order(rng):
    states = random_states(rng, 4)
    perm = rng.permutation(4)
    shuffled = states[np.r_[0, 1 + perm]]
    np.testing.assert_array_equal(relative_features(states), relative_features(shuffled))


def test_linear_k0_predicts_zero(rng):
    model = LinearAggModel.initialised(rng)
    np.testing.assert_array_equal(model.predict_batch(np.zeros((1, 0, 6))), np.zeros((1, 6)))


def test_linear_matches_brute_force_summation(rng):
    model = LinearAggModel.initialised(rng)
    feats = relative_features(np.stack([random_states(rng, 3) for _ in range(50)]))
    for sample, pred in zip(feats, model.predict_batch(feats)):
        brute = np.zeros(6)
        for row in sample:
            brute = brute + model.encoder.forward_cached(row[None])[0][0]
        np.testing.assert_allclose(pred, brute, atol=1e-12)


def test_deepset_duplicate_neighbour_doubles_embedding(rng):
    model = DeepSetModel.initialised(rng)
    states1 = random_states(rng, 1)
    feats1, feats2 = relative_features(states1[None]), relative_features(states1[None, [0, 1, 1]])
    e1 = segment_sum(model.encoder.forward_cached(feats1[0])[0], np.array([1]))
    e2 = segment_sum(model.encoder.forward_cached(feats2[0])[0], np.array([2]))
    np.testing.assert_allclose(e2, 2 * e1, rtol=1e-12)
    # the decoded output is nonlinear in the embedding, so it does not double
    assert not np.allclose(model.predict_batch(feats2), 2 * model.predict_batch(feats1), rtol=1e-3)


def test_deepset_affine_composition_closed_form(rng):
    # single affine layers compose to one affine map: y = (x W1 + b1) W2 + b2
    phi = Mlp.initialised([6, 4], rng)
    dec = Mlp.initialised([4, 6], rng)
    model = DeepSetModel(phi, dec)
    feats = relative_features(random_states(rng, 1)[None])
    x = feats[0, 0]
    expected = (x @ phi.weights[0] + phi.biases[0]) @ dec.weights[0] + dec.biases[0]
    np.testing.assert_allclose(model.predict_batch(feats)[0], expected, atol=1e-13)


def test_deepset_k0_is_decoder_of_zero(rng):
    model = DeepSetModel.initialised(rng)
    out = model.predict_batch(np.zeros((1, 0, 6)))
    np.testing.assert_array_equal(out[0], model.decoder.forward_cached(np.zeros((1, model.encoder.d_out)))[0][0])


def test_deepset_k0_forward_is_decoder_of_zero(rng):
    model = DeepSetModel.initialised(rng)
    pred, _ = model.forward(np.zeros((0, 6)), np.zeros(1, dtype=np.int64))
    np.testing.assert_array_equal(pred[0], model.decoder.forward_cached(np.zeros((1, model.encoder.d_out)))[0][0])


def test_segment_sum_runs_left_to_right():
    rows = np.array([[1e16], [-1e16], [1.0]])
    assert segment_sum(rows, np.array([3]))[0, 0] == 1.0
    # np.add.reduceat sums this segment as a + (b + c), losing the 1.0
    assert np.add.reduceat(rows, [0])[0, 0] == 0.0
    # a uniform batch pools to the bytes of sum(axis=1), signed zeros included
    uniform = np.array([[-0.0, 1e16], [-0.0, -1e16], [0.5, 1.0], [-0.0, 3.0], [-0.0, 0.1], [-0.0, 0.2]])
    expected = uniform.reshape(2, 3, 2).sum(axis=1)
    assert segment_sum(uniform, np.array([3, 3])).tobytes() == expected.tobytes()


def test_segment_sum_runs_left_to_right_in_float32():
    rows = np.array([[1e16], [-1e16], [1.0]], dtype=np.float32)
    pooled = segment_sum(rows, np.array([3]))
    assert pooled.dtype == np.float32 and pooled[0, 0] == 1.0
    assert np.add.reduceat(rows, [0])[0, 0] == 0.0


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
    feats = [relative_features(random_states(rng, k)[None]) for k in (3, 0, 1, 3, 1, 0)]
    rows = np.concatenate([f[0] for f in feats])
    counts = np.array([f.shape[1] for f in feats])
    for model in (LinearAggModel.initialised(rng), DeepSetModel.initialised(rng)):
        pred, _ = model.forward(rows, counts)
        for sample, row in zip(feats, pred):
            np.testing.assert_allclose(row, model.predict_batch(sample)[0], rtol=0, atol=1e-12)


def test_deepset_not_additive_in_general(rng):
    model = DeepSetModel.initialised(rng)
    states = random_states(rng, 2)
    whole = model.predict_batch(relative_features(states[None]))[0]
    singles = relative_features(states[[[0, 1], [0, 2]]])  # each neighbour alone
    parts = model.predict_batch(singles).sum(axis=0)
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


def _fancy_index_query(model, dpos):
    """The (..., 8, 3) formulation of ``query``: all 8 corners' indices and
    weight factors at once, ``prod`` over the factors and ``sum`` over the
    corners (a reduction over a non-contiguous axis, so left to right)."""
    dpos = np.asarray(dpos, dtype=float)
    lo, hi = np.array(model.bounds).T
    cells = np.array(model.values.shape[:3])
    u = (dpos - lo) / ((hi - lo) / cells) - 0.5
    i0 = np.clip(np.floor(u).astype(np.int64), 0, np.maximum(cells - 2, 0))
    frac = np.clip(u - i0, 0.0, 1.0)
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    idx = np.minimum(i0[..., None, :] + bits, cells - 1)
    weight = np.where(bits, frac[..., None, :], 1.0 - frac[..., None, :]).prod(axis=-1)
    out = (weight[..., None] * model.values[idx[..., 0], idx[..., 1], idx[..., 2]]).sum(axis=-2)
    inside = np.all((dpos >= lo) & (dpos <= hi), axis=-1)
    return np.where(inside[..., None], out, 0.0)


@pytest.mark.parametrize("shape", [(4, 5, 3), (1, 6, 2), (5, 1, 3), (3, 4, 1)])
def test_grid_query_is_bitwise_the_fancy_index_formulation(rng, shape):
    model = _uniform_grid_model(rng, *shape)
    # where every weighted corner is -0.0 the sum is +0.0 only if it starts from zero
    model.values[:2, :2, :2] = -0.0
    points = rng.uniform([-1.2, -1.2, -1.7], [1.2, 1.2, 0.2], (4, 60, 3))  # inside and outside
    points[0, :20] = np.array(model.bounds)[np.arange(3), rng.integers(0, 2, (20, 3))]  # on the bounds
    for dpos in (points, points[1], points[2, 7]):  # (n, K, 3), (n, 3) and (3,)
        expected, got = _fancy_index_query(model, dpos), model.query(dpos)
        assert got.shape == dpos.shape[:-1] + (6,)
        assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()
    lo, hi = np.array(model.bounds).T
    inside = np.all((points >= lo) & (points <= hi), axis=-1)
    assert 0 < inside.sum() < inside.size


def _add_at_grid_values(data, bounds, shape):
    """The fitted table as per-axis binning, ``np.add.at`` scatters and
    per-cell means build it, with empty cells filled from the nearest filled
    one: the reference ``fit_grid`` must match bitwise."""
    from scipy import ndimage

    dpos = data.states[:, 1, :3] - data.states[:, 0, :3]
    sums = np.zeros(shape + (6,))
    counts = np.zeros(shape, dtype=np.int64)
    idx, inside = [], np.ones(len(dpos), dtype=bool)
    for ax in range(3):
        lo, hi = bounds[ax]
        h = (hi - lo) / shape[ax]
        idx.append(np.clip(np.floor((dpos[:, ax] - lo) / h).astype(np.int64), 0, shape[ax] - 1))
        inside &= (dpos[:, ax] >= lo) & (dpos[:, ax] <= hi)
    cells = tuple(i[inside] for i in idx)
    np.add.at(counts, cells, 1)
    np.add.at(sums, cells, data.measured[inside])
    values = np.zeros_like(sums)
    filled = counts > 0
    values[filled] = sums[filled] / counts[filled][:, None]
    sampling = [(hi - lo) / n for (lo, hi), n in zip(bounds, shape)]
    _, nearest = ndimage.distance_transform_edt(~filled, sampling=sampling, return_indices=True)
    return values[nearest[0], nearest[1], nearest[2]], counts


@pytest.mark.parametrize(
    "resolution, altitudes, n",
    [((16, 20), (0.3, 1.3), 300), ((4, 5), (0.5,), 40), ((7, 3), (0.3, 0.8, 1.3), 80)],
)
def test_fit_grid_is_bitwise_the_add_at_binning(rng, resolution, altitudes, n):
    """Random K=1 samples inside the bounds, exactly on them and outside, with
    several samples in some cells and none in others."""
    sweep = SweepConfig(altitudes=altitudes)
    probe = fit_grid(_k1_arrays([0.0, 0.0, -altitudes[0]], [np.zeros(6)]), sweep, resolution)
    lo, hi = np.array(probe.bounds).T
    dpos = rng.uniform(lo, hi, (n, 3))
    dpos[: n // 10] = np.array(probe.bounds)[np.arange(3), rng.integers(0, 2, (n // 10, 3))]  # on the bounds
    dpos[n // 10 : n // 5] = rng.uniform(lo - 0.5, hi + 0.5, (n // 10, 3))  # inside and outside
    dpos[n // 5 : n // 4] = dpos[n // 4 : n // 4 + n // 20]  # shared cells
    data = _k1_arrays(dpos, rng.normal(size=(n, 6)))
    model = fit_grid(data, sweep, resolution)
    shape = tuple(resolution) + (len(altitudes),)
    expected, counts = _add_at_grid_values(data, probe.bounds, shape)
    assert model.bounds == probe.bounds and model.values.shape == shape + (6,)
    assert model.values.tobytes() == expected.tobytes()
    inside = ((dpos >= lo) & (dpos <= hi)).all(axis=1)
    assert 0 < inside.sum() < n and counts.max() > 1 and (counts == 0).any()


def test_grid_query_outside_bounds_is_zero(rng):
    model = _uniform_grid_model(rng)
    np.testing.assert_array_equal(model.query([1.2, 0.0, -0.5]), np.zeros(6))
    np.testing.assert_array_equal(model.query([0.0, 0.0, 0.5]), np.zeros(6))


def test_grid_predict_neighbour_outside_contributes_zero(rng):
    model = _uniform_grid_model(rng)
    states = np.zeros((3, 7))
    states[1, :3] = 0.1, 0.2, -0.7  # inside the bounds
    states[2, :3] = 5.0, 0.0, -0.7  # outside
    both, only = relative_features(states[None]), relative_features(states[None, :2])
    np.testing.assert_array_equal(model.predict_batch(both), model.predict_batch(only))


def _k1_arrays(dpos, measured):
    """A K=1 dataset with the sufferer at the origin and the given neighbour positions."""
    n = len(measured)
    states = np.zeros((n, 2, 7))
    states[:, 1, :3] = dpos
    return Dataset(np.zeros(n), states, np.zeros((n, 6)), np.asarray(measured, dtype=float), {})


def test_fit_grid_single_cell_stores_mean():
    data = _k1_arrays([0.0, 0.0, -1.0], [np.full(6, 1.0), np.full(6, 3.0)])
    model = fit_grid(data, SweepConfig(altitudes=(1.0,)), (1, 1))
    np.testing.assert_allclose(model.values[0, 0, 0], np.full(6, 2.0))


def test_fit_grid_rejects_wrong_k_and_empty():
    with pytest.raises(ValueError, match="empty"):
        fit_grid(_k1_arrays(np.zeros((0, 3)), np.zeros((0, 6))), SweepConfig(), (4, 4))
    states = np.zeros((1, 3, 7))
    states[0, 1:, :3] = [[0, 0, -1], [0, 0.5, -1]]
    data = Dataset(np.zeros(1), states, np.zeros((1, 6)), np.zeros((1, 6)), {})
    with pytest.raises(ValueError, match="K=1"):
        fit_grid(data, SweepConfig(), (4, 4))


def test_fit_grid_rejects_unevenly_spaced_altitudes():
    data = _k1_arrays([0.0, 0.0, -0.5], [np.full(6, 1.0)])
    with pytest.raises(ValueError, match=r"evenly spaced altitudes, got \[0\.3, 0\.5, 1\.3\]"):
        fit_grid(data, SweepConfig(altitudes=(0.3, 0.5, 1.3)), (4, 4))
    assert fit_grid(data, SweepConfig(altitudes=(0.2, 0.4, 0.6, 0.8)), (4, 4)).values.shape[2] == 4


def test_fit_grid_noiseless_matches_oracle_on_support():
    sweep = SweepConfig(legs=24, samples_per_leg=120, altitudes=(0.3, 0.8))
    k1 = Formation(FormationKind.SIDE_BY_SIDE, 1)
    data = generate_sweep(k1, sweep, "additive", DownwashParams(), noise=NoiseParams(0.0, 0.0, seed=3))
    model = fit_grid(data, sweep, (24, 40))
    p = DownwashParams()
    dpos = data.states[::5, 1, :3] - data.states[::5, 0, :3]
    worst = float(np.max(np.abs(model.query(dpos) - single_vehicle_wrench(dpos, p))))
    assert worst < 0.05 * p.peak_force


def test_grid_geometry_vertical_cells():
    data = _k1_arrays([0.0, 0.0, -0.8], [np.full(6, 1.0)])
    grid = fit_grid(data, SweepConfig(altitudes=(0.3, 0.8, 1.3)), (4, 4))
    # one 0.5 m cell per plane
    assert grid.values.shape[2] == 3 and grid.bounds[2] == pytest.approx((-1.55, -0.05))
    assert grid.bounds[:2] == [(-1.0, 1.0), (-1.0, 1.0)]


def test_single_altitude_grid_cell_is_one_spacing_high():
    sweep = SweepConfig(legs=4, samples_per_leg=20, altitudes=(1.3,), spacing=0.4)
    data = generate_sweep(
        Formation(FormationKind.SIDE_BY_SIDE, 1), sweep, "additive", DownwashParams(), noise=NoiseParams(0.0, 0.0)
    )
    grid = fit_grid(data, sweep, (4, 4))
    assert grid.values.shape[2] == 1 and grid.bounds[2] == pytest.approx((-1.5, -1.1))
    # the one plane answers within spacing/2 of its altitude and nowhere else
    on_plane = grid.query([0.0, 0.0, -1.3])
    assert np.any(on_plane != 0.0)
    np.testing.assert_allclose(grid.query([0.0, 0.0, -1.3 + 0.19]), on_plane, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grid.query([0.0, 0.0, -1.3 - 0.19]), on_plane, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(grid.query([0.0, 0.0, -1.3 + 0.21]), np.zeros(6))
    np.testing.assert_array_equal(grid.query([0.0, 0.0, -1.3 - 0.21]), np.zeros(6))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: LinearSettings(hidden=(0,)), "hidden"),
        (lambda: LinearSettings(hidden=(8, -2)), "hidden"),
        (lambda: DeepSetSettings(embed_dim=0), "embed_dim"),
        (lambda: DeepSetSettings(decoder_hidden=(-2,)), "decoder_hidden"),
    ],
    ids=["zero_hidden", "negative_hidden", "zero_embed_dim", "negative_decoder_hidden"],
)
def test_settings_refuse_sizes_below_one(make, field):
    """The settings refuse the size, so no ``initialised`` built from them
    reaches ``rng.uniform`` (an OverflowError at 0) or numpy's "negative
    dimensions"."""
    with pytest.raises(ValueError, match=rf"^{field}: every size must be >= 1"):
        make()


def test_model_serialization_round_trip(tmp_path, rng):
    models = {
        "linear.json": LinearAggModel.initialised(rng, LinearSettings(hidden=(8, 8))),
        "deepset.json": DeepSetModel.initialised(
            rng, DeepSetSettings(embed_dim=8, phi_hidden=(8,), decoder_hidden=(8,))
        ),
        "grid.json": _uniform_grid_model(rng),
    }
    feats = relative_features(random_states(rng, 3)[None])
    for name, model in models.items():
        model.metadata["note"] = "round-trip"
        path = tmp_path / name
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.predict_batch(feats), loaded.predict_batch(feats))
        path2 = tmp_path / ("re_" + name)
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]


def _params(model) -> np.ndarray:
    return model.values if isinstance(model, GridLookupModel) else model.flat


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: LinearAggModel.initialised(rng, LinearSettings(hidden=(8,))),
        lambda rng: DeepSetModel.initialised(rng, DeepSetSettings(embed_dim=8, phi_hidden=(8,), decoder_hidden=(8,))),
        _uniform_grid_model,
    ],
    ids=["linear", "deepset", "grid"],
)
def test_extreme_values_survive_save_load_save_bitwise(tmp_path, rng, make):
    model = make(rng)
    _params(model).reshape(-1)[: len(EXTREMES)] = EXTREMES
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert _params(loaded).tobytes() == _params(model).tobytes()
    assert np.signbit(_params(loaded).reshape(-1)[0]) and _params(loaded).flags.writeable
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    """A grid, a linear and a deep-set model file's JSON documents with their
    parameter bytes, and a scratch path to write damaged copies to."""
    rng = np.random.default_rng(11)
    models = [
        _uniform_grid_model(rng),
        LinearAggModel.initialised(rng, LinearSettings(hidden=(8,))),
        DeepSetModel.initialised(rng, DeepSetSettings(embed_dim=4, phi_hidden=(8,), decoder_hidden=(8,))),
    ]
    scratch = tmp_path_factory.mktemp("model_fuzz") / "model.json"
    docs = []
    for model in models:
        model.metadata.update(trained_on=["a", "b"], fitted_from={"name": "a", "altitudes": [0.3, 1.3]})
        save_model(model, scratch)
        docs.append((json.loads(scratch.read_text(encoding="utf-8")), _params(model).tobytes()))
    return docs, scratch


@json_swap_fuzz
def test_model_file_with_a_value_swapped_loads_the_same_or_is_format_error(model_docs, value):
    """At every key path of each model file, ``value`` in place of the
    original or the key deleted: the file loads the same parameters, or it is
    a FormatError naming it."""
    docs, path = model_docs
    for doc, params in docs:
        for key_path, swapped in json_swaps(doc, value):
            path.write_text(json.dumps(swapped), encoding="utf-8")
            try:
                loaded = load_model(path)
            except FormatError as exc:
                assert str(path) in str(exc), (key_path, str(exc))
            else:
                assert _params(loaded).tobytes() == params, key_path


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a downwash model"):
        load_model(path)


@pytest.mark.parametrize("model_cls", [LinearAggModel, DeepSetModel])
def test_set_network_parameters_are_views_of_its_flat_vector(tmp_path, rng, model_cls):
    model = model_cls.initialised(rng)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for m in (model, loaded):
        nets = [m.encoder] + ([m.decoder] if m.decoder is not None else [])
        arrays = [a for net in nets for a in net.weights + net.biases]
        assert all(np.shares_memory(a, m.flat) for a in arrays)
        assert sum(a.size for a in arrays) == m.flat.size
        named = m.named_parameters()
        assert [p.shape for p in named.values()] == [a.shape for net in nets for wb in zip(net.weights, net.biases) for a in wb]
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in named.values()]), m.flat)
    assert loaded.flat.tobytes() == model.flat.tobytes()
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_failed_save_leaves_the_previous_model_file(tmp_path, rng):
    model = LinearAggModel.initialised(rng, LinearSettings(hidden=(8,)))
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    model.metadata["bad"] = object()
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_model(model, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


@pytest.mark.parametrize(
    "dims",
    [[6, 8.5, 6], [6, True, 6], [6, 0, 6], [6, -3, 6], "6", [6, [8], 6], [6, 40000, 40000, 6]],
    ids=["float", "bool", "zero", "negative", "string", "nested_list", "too_large_for_the_payload"],
)
def test_malformed_network_dims_are_format_error(tmp_path, rng, dims):
    """Each dims entry must be a plain positive int, and the payload must hold
    the values the dims call for; both are checked before a network is built,
    so the 12 GiB that [6, 40000, 40000, 6] would need is never asked for."""
    path = tmp_path / "model.json"
    save_model(LinearAggModel.initialised(rng, LinearSettings(hidden=(8,))), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["psi"]["dims"] = dims
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
