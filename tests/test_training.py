import base64
import json
import tracemalloc

import numpy as np
import pytest

from downwash import training
from downwash.core import relative_features
from downwash.dataset import Dataset
from downwash.field import DownwashParams, MergeParams, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.mlp import Adam
from downwash.models import DeepSetModel, DeepSetSettings, LinearAggModel, LinearSettings, load_model, save_model
from downwash.rng import stream
from downwash.training import (
    TrainConfig,
    TrainingDivergence,
    batch_loss_and_gradients,
    dataset_arrays,
    loss_weights_for,
    train,
)

from conftest import random_states
from test_mlp import fd_gradients, max_rel_error

P = DownwashParams()

# Regression baseline: raw RMSE achieved by the first verified 200-epoch run
# of the noiseless K=1 fit below (seeds fixed).  Tightening the tolerance
# further would make the test flaky; loosening it would hide regressions.
K1_NOISELESS_RMSE_BASELINE = 0.0777


def _k1_noiseless():
    cfg = SweepConfig(legs=16, samples_per_leg=100, altitudes=(0.3, 0.8, 1.3))
    return generate_sweep(
        Formation(FormationKind.SIDE_BY_SIDE, 1),
        cfg,
        "additive",
        P,
        noise=NoiseParams(0.0, 0.0, seed=0),
    )


def _merging_k3(samples=60):
    cfg = SweepConfig(legs=12, samples_per_leg=samples, altitudes=(1.3,))
    return generate_sweep(
        Formation(FormationKind.LEADER_FOLLOWER, 3),
        cfg,
        "merging",
        P,
        merge=MergeParams(),
        noise=NoiseParams(seed=2),
    )


def test_zero_learning_rate_leaves_parameters_unchanged():
    data = [_merging_k3(samples=10)]
    model = LinearAggModel.initialised(stream(4))
    before = model.flat.copy()
    train(model, data, TrainConfig(epochs=3, learning_rate=0.0, seed=1))
    np.testing.assert_array_equal(before, model.flat)


def test_training_is_bitwise_deterministic():
    data = [_merging_k3(samples=15)]
    cfg = TrainConfig(epochs=5, seed=77, batch_size=64)
    params = []
    for _ in range(2):
        model = DeepSetModel.initialised(
            stream(9), DeepSetSettings(embed_dim=16, phi_hidden=(16,), decoder_hidden=(16,))
        )
        history = train(model, data, cfg)
        params.append((model.flat.copy(), history))
    assert np.array_equal(params[0][0], params[1][0])
    assert params[0][1] == params[1][1]


@pytest.mark.parametrize("kind", ["linear", "deepset"])
def test_set_summation_gradients_match_finite_differences(kind, rng):
    if kind == "linear":
        model = LinearAggModel.initialised(stream(11), LinearSettings(hidden=(8,)))
    else:
        model = DeepSetModel.initialised(stream(12), DeepSetSettings(embed_dim=6, phi_hidden=(8,), decoder_hidden=(8,)))
    data = [_merging_k3(samples=2)]
    rows, counts, targets = dataset_arrays(data)
    rows, counts, targets = rows[: counts[:6].sum()], counts[:6], targets[:6]
    weights = loss_weights_for(targets, TrainConfig.sigma_floor)
    _, analytic = batch_loss_and_gradients(model, rows, counts, targets, weights)

    def loss():
        return batch_loss_and_gradients(model, rows, counts, targets, weights)[0]

    numeric = fd_gradients(loss, model.flat)
    assert max_rel_error(analytic, numeric) < 1e-4


def test_mixed_k_batches_train(rng):
    k1 = generate_sweep(
        Formation(FormationKind.SIDE_BY_SIDE, 1),
        SweepConfig(legs=4, samples_per_leg=10, altitudes=(0.8,)),
        "merging",
        P,
        merge=MergeParams(),
        noise=NoiseParams(seed=5),
    )
    k3 = _merging_k3(samples=10)
    model = DeepSetModel.initialised(stream(21), DeepSetSettings(embed_dim=16, phi_hidden=(16,), decoder_hidden=(16,)))
    history = train(model, [k1, k3], TrainConfig(epochs=4, seed=6, batch_size=32))
    assert len(history) == 4 and np.isfinite(history).all()
    rows, counts, _ = dataset_arrays([k1, k3])
    assert set(counts) == {1, 3} and len(rows) == counts.sum() == len(k1) + 3 * len(k3)


def _k0(n=20, seed=8):
    """An in-memory K=0 dataset: a lone sufferer with noise-only measurements."""
    rng = np.random.default_rng(seed)
    measured = rng.normal(0.0, 0.05, (n, 6))
    return Dataset(np.arange(n, dtype=float), np.zeros((n, 1, 7)), np.zeros((n, 6)), measured, {})


@pytest.mark.parametrize("model_cls", [LinearAggModel, DeepSetModel])
def test_k0_dataset_trains(model_cls):
    model = model_cls.initialised(stream(40))
    history = train(model, [_k0()], TrainConfig(epochs=3, seed=4, batch_size=8))
    assert len(history) == 3 and np.isfinite(history).all()
    assert np.isfinite(model.flat).all()


def test_k0_and_k3_mix_trains():
    data = [_k0(), _merging_k3(samples=5)]
    rows, counts, _ = dataset_arrays(data)
    assert set(counts) == {0, 3} and len(rows) == counts.sum()
    model = DeepSetModel.initialised(stream(41), DeepSetSettings(embed_dim=16, phi_hidden=(16,), decoder_hidden=(16,)))
    history = train(model, data, TrainConfig(epochs=3, seed=5, batch_size=16))
    assert len(history) == 3 and np.isfinite(history).all()
    assert np.isfinite(model.flat).all()


def test_divergence_detection_reports_epoch():
    data = [_merging_k3(samples=5)]
    model = LinearAggModel.initialised(stream(30))
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergence) as err:
            train(model, data, TrainConfig(epochs=5, learning_rate=1e160, seed=3))
    assert err.value.epoch >= 0
    # it names the first non-finite parameter array, in model.flat order
    named = model.named_parameters()
    first_bad = next(n for n, p in named.items() if not np.isfinite(p).all())
    assert err.value.parameter == first_bad
    assert f"parameter {first_bad} " in str(err.value)
    assert list(named)[:4] == ["encoder.W0", "encoder.b0", "encoder.W1", "encoder.b1"]


def test_noiseless_k1_reaches_regression_baseline():
    data = [_k1_noiseless()]
    model = LinearAggModel.initialised(stream(123))
    train(model, data, TrainConfig(epochs=200, seed=55))
    rows, counts, targets = dataset_arrays(data)
    preds = model.forward(rows, counts)[0]
    rmse = float(np.sqrt(np.mean((preds - targets) ** 2)))
    assert rmse < 0.05 * P.peak_force
    assert rmse < 1.5 * K1_NOISELESS_RMSE_BASELINE


def test_deepset_beats_linear_on_merging_formation():
    data = [_merging_k3(samples=60)]
    cfg = TrainConfig(epochs=100, seed=99)
    linear = LinearAggModel.initialised(stream(1))
    linear_history = train(linear, data, cfg)
    deepset = DeepSetModel.initialised(stream(2))
    deepset_history = train(deepset, data, cfg)
    assert deepset_history[-1] < linear_history[-1]


def test_loss_weights_floor_protects_constant_axes():
    targets = np.zeros((10, 6))
    targets[:, 2] = np.linspace(0, 4, 10)
    w = loss_weights_for(targets, sigma_floor=0.01)
    assert w[5] == pytest.approx(1.0 / 0.01**2)
    assert w[2] < w[5]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def _deepset(seed=50):
    return DeepSetModel.initialised(stream(seed), DeepSetSettings(embed_dim=16, phi_hidden=(16,), decoder_hidden=(16,)))


def _ragged_batch(rng, counts):
    counts = np.asarray(counts)
    rows = rng.uniform(-1, 1, (int(counts.sum()), 6))
    return rows, counts, rng.uniform(-1, 1, (len(counts), 6))


def test_earlier_gradients_survive_a_later_call(rng):
    model = _deepset()
    first = _ragged_batch(rng, [3, 1, 0, 2])
    weights = np.ones(6)
    _, grad = batch_loss_and_gradients(model, *first, weights)
    kept = grad.copy()
    batch_loss_and_gradients(model, *_ragged_batch(rng, [2, 2, 3, 3, 1]), weights)
    assert grad.tobytes() == kept.tobytes()


def test_predictions_survive_a_later_training_step(rng):
    model = _deepset()
    feats = rng.uniform(-1, 1, (8, 3, 6))
    pred = model.predict_batch(feats)
    kept = pred.copy()
    train(model, [_merging_k3(samples=5)], TrainConfig(epochs=1, seed=3, batch_size=16))
    assert not np.array_equal(model.predict_batch(feats), kept)  # the step did move the model
    assert pred.tobytes() == kept.tobytes()


@pytest.mark.parametrize("model_cls", [LinearAggModel, DeepSetModel])
def test_a_small_batch_after_a_large_one_sees_no_stale_rows(rng, model_cls):
    """A workspace filled by a 768-row batch leaks nothing into a later K=0/1 batch."""
    model = model_cls.initialised(stream(51))
    fresh = model_cls.initialised(stream(51))
    workspace = model.workspace(256, 768)
    weights = rng.uniform(0.5, 2.0, 6)
    batch_loss_and_gradients(model, *_ragged_batch(rng, [3] * 256), weights, workspace)
    for counts in ([0, 1, 0, 1, 1], [0, 0], [1]):
        small = _ragged_batch(rng, counts)
        loss, grad = batch_loss_and_gradients(model, *small, weights, workspace)
        ref_loss, ref_grad = batch_loss_and_gradients(fresh, *small, weights)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()


def test_training_memory_does_not_grow_with_epochs():
    """Workspaces are sized once, not per batch shape: the traced peak of 10
    mixed-K epochs stays within 10 % of the peak of 2."""
    data = [_merging_k3(samples=20), _k0(n=200)]
    peaks = []
    for epochs in (2, 10):
        model = _deepset()
        tracemalloc.start()
        try:
            train(model, data, TrainConfig(epochs=epochs, seed=7, batch_size=64))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_training_keeps_float64_master_weights(monkeypatch, tmp_path):
    """The step runs in float32, but model.flat, Adam's moments and the model
    file stay float64."""
    made = []
    monkeypatch.setattr(training, "Adam", lambda *args, **kwargs: made.append(Adam(*args, **kwargs)) or made[-1])
    model = _deepset()
    train(model, [_merging_k3(samples=5)], TrainConfig(epochs=2, seed=3, batch_size=16))
    (optimiser,) = made
    assert optimiser.t > 0 and optimiser.m.any()
    assert model.flat.dtype == optimiser.m.dtype == optimiser.v.dtype == np.float64
    path = tmp_path / "deepset.json"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert base64.b64decode(doc["phi"]["flat"]) == model.encoder.flat.astype("<f8").tobytes()
    loaded = load_model(path)
    assert loaded.flat.dtype == np.float64 and loaded.flat.tobytes() == model.flat.tobytes()


@pytest.mark.parametrize("model_cls", [LinearAggModel, DeepSetModel])
def test_a_float32_copy_computes_in_float32(rng, model_cls):
    model = model_cls.initialised(stream(52))
    net = model.astype(np.float32)
    assert type(net) is model_cls and len(net.encoder.flat) == len(model.encoder.flat)
    assert net.flat.tobytes() == model.flat.astype(np.float32).tobytes()
    assert model.flat.dtype == np.float64  # the original is untouched
    workspace = net.workspace(8, 24)
    buffers = [b for ws in workspace if ws for b in (*ws.outputs, *ws.deltas, ws.scratch)]
    assert {b.dtype for b in buffers} == {np.dtype(np.float32)}
    rows, counts, targets = _ragged_batch(rng, [3] * 8)
    cast = (rows.astype(np.float32), counts, targets.astype(np.float32), np.ones(6, np.float32))
    for ws in (workspace, None):
        loss, grad = batch_loss_and_gradients(net, *cast, ws)
        assert grad.dtype == np.float32 and np.isfinite(loss)


def test_float32_gradient_matches_float64_on_the_criterion_2_batch():
    """Criterion 2's 4 x K=3 batch: the float32 copy's gradient is the float64
    gradient to 1e-3 in relative norm."""
    rng = np.random.default_rng(202)
    feats = relative_features(np.stack([random_states(rng, 3) for _ in range(4)])).reshape(-1, 6)
    counts = np.full(4, 3)
    for model in (LinearAggModel.initialised(stream(11)), DeepSetModel.initialised(stream(12))):
        targets = rng.uniform(-2, 2, (4, 6))
        weights = loss_weights_for(targets, TrainConfig.sigma_floor)
        _, exact = batch_loss_and_gradients(model, feats, counts, targets, weights)
        f32, t32, w32 = (a.astype(np.float32) for a in (feats, targets, weights))
        _, low = batch_loss_and_gradients(model.astype(np.float32), f32, counts, t32, w32)
        assert exact.dtype == np.float64 and low.dtype == np.float32
        assert np.linalg.norm(low - exact) <= 1e-3 * np.linalg.norm(exact)
