"""Acceptance suite.

One test per acceptance criterion, each asserting the stated tolerance and
printing a single PASS line (run ``pytest -s tests/test_acceptance.py`` to
see them live).  The nonlinear-regime pipeline (datasets -> training ->
evaluation) is shared through a module-scoped fixture and timed end to end.

Criterion 5a's D errors, quoted to full precision in the project notes as
1.7922698572835027 / 1.8452333752055985 / 0.435423184586369 (naive / learnt
linear / deep set), hold with one BLAS thread (``OPENBLAS_NUM_THREADS=1``).
Under OpenBLAS's default of one thread per core (two on a 2-core host) the
learnt-linear figure reads 1.8452333752055978; the gates hold either way.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from downwash.cli import EXIT_OK, main
from downwash.core import relative_features
from downwash.evaluate import (
    contour_grid,
    count_peaks,
    integrated_plane_error,
    slice_profile,
)
from downwash.field import (
    DownwashParams,
    MergeParams,
    NoiseParams,
    make_oracle,
)
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.models import DeepSetModel, GridLookupModel, LinearAggModel, fit_grid
from downwash.rng import stream, substream_seed
from downwash.training import (
    TrainConfig,
    batch_loss_and_gradients,
    dataset_arrays,
    loss_weights_for,
    train,
)

from conftest import random_states

P = DownwashParams()
M = MergeParams()
K1 = Formation(FormationKind.SIDE_BY_SIDE, 1, 0.5)
LF3 = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
LF4 = Formation(FormationKind.LEADER_FOLLOWER, 4, 0.5)
SEED = 42


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def _stacked_by_k(samples):
    """State arrays (K+1, 7) of mixed K stacked into one batch (m, K+1, 7) per K."""
    groups = {}
    for states in samples:
        groups.setdefault(len(states) - 1, []).append(states)
    return {k: np.stack(group) for k, group in sorted(groups.items())}


def _sum_of_singletons(model, states):
    """Per sample of a state batch (m, K+1, 7), the model's predictions for
    each neighbour alone with the sufferer, summed in listed order from zero."""
    m, k = states.shape[0], states.shape[1] - 1
    pairs = states[:, [(0, j) for j in range(1, k + 1)]]  # (m, K, 2, 7)
    parts = model.predict_batch(relative_features(pairs).reshape(m * k, 1, 6)).reshape(m, k, 6)
    brute = np.zeros((m, 6))
    for j in range(k):
        brute = brute + parts[:, j]
    return brute


# -------------------------------------------------------------- criterion 1

def test_criterion_1_permutation_invariance():
    rng = np.random.default_rng(101)
    linear = LinearAggModel.initialised(stream(1))
    deepset = DeepSetModel.initialised(stream(2))
    grid = GridLookupModel(
        [(-1.5, 1.5), (-1.5, 1.5), (-1.6, 0.0)], rng.uniform(-2, 2, (12, 12, 6, 6))
    )
    start = time.perf_counter()
    listed, shuffled = [], []
    for i in range(1000):
        k = int(rng.integers(2, 5))
        listed.append(random_states(rng, k))
        shuffled.append(listed[-1][np.r_[0, 1 + rng.permutation(k)]])
    for states, moved in zip(_stacked_by_k(listed).values(), _stacked_by_k(shuffled).values()):
        for model in (linear, deepset, grid):
            whole = model.predict_batch(relative_features(states))
            assert np.array_equal(whole, model.predict_batch(relative_features(moved)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"1000 snapshots, 3 models bitwise invariant in {elapsed:.1f} s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    feats = relative_features(np.stack([random_states(rng, 3) for _ in range(4)]))
    worst = 0.0
    checked = 0
    for model in (LinearAggModel.initialised(stream(11)), DeepSetModel.initialised(stream(12))):
        targets = rng.uniform(-2, 2, (len(feats), 6))
        weights = loss_weights_for(targets)
        _, analytic = batch_loss_and_gradients(model, feats.reshape(-1, 6), np.full(4, 3), targets, weights)
        flat = model.flat
        step = 1e-5
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = batch_loss_and_gradients(model, feats.reshape(-1, 6), np.full(4, 3), targets, weights)[0]
            flat[i] = orig - step
            lo = batch_loss_and_gradients(model, feats.reshape(-1, 6), np.full(4, 3), targets, weights)[0]
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            denom = max(abs(analytic[i]), abs(fd), 1e-6)
            worst = max(worst, abs(analytic[i] - fd) / denom)
            checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    _report(2, f"{checked} parameters, max relative error {worst:.2e} in {elapsed:.1f} s")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(303)
    linear = LinearAggModel.initialised(stream(31))
    grid = GridLookupModel(
        [(-1.5, 1.5), (-1.5, 1.5), (-1.6, 0.0)], rng.uniform(-2, 2, (10, 10, 5, 6))
    )
    start = time.perf_counter()
    samples = []
    for i in range(10_000):
        k = int(rng.integers(1, 5))
        samples.append(random_states(rng, k))
    worst = 0.0
    for states in _stacked_by_k(samples).values():
        for model in (linear, grid):
            whole = model.predict_batch(relative_features(states))
            worst = max(worst, float(np.max(np.abs(whole - _sum_of_singletons(model, states)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    _report(3, f"10000 snapshots, max |set - per-neighbour sum| = {worst:.2e} in {elapsed:.2f} s")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_additive_regime():
    start = time.perf_counter()
    cfg = SweepConfig(legs=64, samples_per_leg=800)
    data = generate_sweep(
        K1, cfg, "additive", P, noise=NoiseParams(seed=substream_seed(SEED, "crit4"))
    )
    naive = fit_grid(data, cfg, (cfg.legs, 64))
    err = integrated_plane_error(naive.predict_batch, make_oracle("additive", P), LF3, 0.3, resolution=64)
    elapsed = time.perf_counter() - start
    assert err[2] < 0.10
    assert elapsed < 300.0
    _report(4, f"naive-linear D error {err[2]:.4f} < 0.10 on additive truth in {elapsed:.0f} s")


# -------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def nonlinear_pipeline():
    """Full merging-regime pipeline: generate, fit, train, evaluate."""
    start = time.perf_counter()
    truth = make_oracle("merging", P, M)

    def noise(tag):
        return NoiseParams(seed=substream_seed(SEED, tag))

    fit_sweep = SweepConfig(legs=64, samples_per_leg=800)
    k1_fit = generate_sweep(K1, fit_sweep, "merging", P, M, noise("k1fit"))
    k1_train = generate_sweep(K1, SweepConfig(), "merging", P, M, noise("k1train"))
    k3_low = generate_sweep(LF3, SweepConfig(altitudes=(0.3,)), "merging", P, M, noise("k3low"))
    k3_full = generate_sweep(LF3, SweepConfig(), "merging", P, M, noise("k3full"))

    naive = fit_grid(k1_fit, fit_sweep, (64, 64))
    # The learnt linear trains on the linear-interaction regime (single
    # vehicle everywhere plus the low-altitude formation data); the deep set
    # trains on the full altitude range of the formation it is asked about.
    linear = LinearAggModel.initialised(stream(substream_seed(SEED, "init:linear")))
    train(linear, [k1_train, k3_low], TrainConfig(epochs=200, seed=substream_seed(SEED, "train:linear")))
    deepset = DeepSetModel.initialised(stream(substream_seed(SEED, "init:deepset")))
    train(deepset, k3_full, TrainConfig(epochs=500, seed=substream_seed(SEED, "train:deepset")))

    predictors = {
        "naive_linear": naive.predict_batch,
        "learnt_linear": linear.predict_batch,
        "learnt_nonlinear": deepset.predict_batch,
    }
    errors = {
        name: integrated_plane_error(pred, truth, LF3, 1.3, resolution=64)
        for name, pred in predictors.items()
    }
    profile = slice_profile(predictors, truth, LF3, 1.3, axis="e", resolution=201)
    elapsed = time.perf_counter() - start
    return {
        "errors": errors,
        "profile": profile,
        "elapsed": elapsed,
        "models": {"linear": linear, "deepset": deepset, "naive": naive},
    }


def test_criterion_5a_nonlinear_error_ordering(nonlinear_pipeline):
    errors = nonlinear_pipeline["errors"]
    d_naive = errors["naive_linear"][2]
    d_linear = errors["learnt_linear"][2]
    d_deepset = errors["learnt_nonlinear"][2]
    assert d_naive >= 1.3 * d_deepset
    assert d_linear >= 1.3 * d_deepset
    assert nonlinear_pipeline["elapsed"] < 900.0
    _report(
        "5a",
        f"D errors naive {float(d_naive)!r} / linear {float(d_linear)!r} >= 1.3x deep set "
        f"{float(d_deepset)!r}; pipeline {nonlinear_pipeline['elapsed']:.0f} s",
    )


def test_criterion_5b_peak_structure(nonlinear_pipeline):
    profile = nonlinear_pipeline["profile"]
    peaks = {name: count_peaks(col) for name, col in profile.columns.items()}
    assert peaks["ground_truth"] == 1
    assert peaks["learnt_nonlinear"] == 1
    assert peaks["naive_linear"] == 3
    assert peaks["learnt_linear"] == 3
    _report("5b", f"slice peak counts {peaks}")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_altitude_trend():
    truth = make_oracle("merging", P, M)
    additive = make_oracle("additive", P)
    gaps = [
        integrated_plane_error(additive, truth, LF3, altitude, resolution=32)[2]
        for altitude in (0.3, 0.8, 1.3)
    ]
    assert gaps[0] <= gaps[1] <= gaps[2]
    _report(6, "additive-vs-merging D gap " + " <= ".join(f"{g:.3f}" for g in gaps))


# -------------------------------------------------------------- criterion 7

def test_criterion_7_single_vehicle_column_width():
    radii = {}
    for altitude in (0.3, 0.8, 1.3):
        _, _, values = contour_grid(make_oracle("additive", P), K1, altitude, resolution=128)
        cell_area = (2.0 / 128) ** 2
        area = np.count_nonzero(values >= 0.5 * values.max()) * cell_area
        radii[altitude] = float(np.sqrt(area / np.pi))
    growth = radii[1.3] / radii[0.3]
    assert growth < 2.0
    _report(7, f"50%-support radius {radii[0.3]:.3f} m -> {radii[1.3]:.3f} m (x{growth:.2f} < 2)")


# -------------------------------------------------------------- criterion 8

ACCEPT_CFG = """
seed: 77
output_dir: {out}
sweep: {{legs: 6, samples_per_leg: 25, altitudes: [0.3, 1.3]}}
datasets:
  - {{name: single_k1, kind: side_by_side, k: 1, oracle: merging, legs: 12, samples_per_leg: 50}}
  - {{name: leader_follower_k3, kind: leader_follower, k: 3, oracle: merging}}
training: {{epochs: 3, batch_size: 128}}
models:
  naive: {{fit_on: single_k1, resolution: [12, 16]}}
  linear: {{train_on: [single_k1, leader_follower_k3]}}
  deepset: {{train_on: [leader_follower_k3]}}
eval:
  formations: [{{kind: leader_follower, k: 3}}]
  altitudes: [1.3]
  resolution: 16
  slice_resolution: 41
  contour_resolution: 16
"""


def test_criterion_8_end_to_end_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.yaml"
        cfg_path.write_text(ACCEPT_CFG.format(out=out), encoding="utf-8")
        for command in ("gen", "train", "eval", "report"):
            assert main([command, "--config", str(cfg_path)]) == EXIT_OK
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        outputs.append((out, files))
    (out_a, files_a), (out_b, files_b) = outputs
    assert files_a == files_b and len(files_a) > 0
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    _report(8, f"gen/train/eval/report twice: {len(files_a)} files byte-identical")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_generalization_probe():
    def noise(tag):
        return NoiseParams(seed=substream_seed(SEED, tag))

    cfg = SweepConfig(legs=12, samples_per_leg=60, altitudes=(0.8, 1.3))
    sbs2 = Formation(FormationKind.SIDE_BY_SIDE, 2, 0.5)
    data = [
        generate_sweep(K1, cfg, "merging", P, M, noise("gen-k1")),
        generate_sweep(sbs2, cfg, "merging", P, M, noise("gen-k2")),
        generate_sweep(LF3, cfg, "merging", P, M, noise("gen-k3")),
    ]
    tcfg = TrainConfig(epochs=60, seed=substream_seed(SEED, "gen-train"))
    linear = LinearAggModel.initialised(stream(substream_seed(SEED, "gen-init-lin")))
    train(linear, data, tcfg)
    deepset = DeepSetModel.initialised(stream(substream_seed(SEED, "gen-init-ds")))
    train(deepset, data, tcfg)

    truth = make_oracle("merging", P, M)
    err_linear = integrated_plane_error(linear.predict_batch, truth, LF4, 1.3, resolution=32)
    err_deepset = integrated_plane_error(deepset.predict_batch, truth, LF4, 1.3, resolution=32)
    assert np.all(np.isfinite(err_linear[:5])) and np.all(np.isfinite(err_deepset[:5]))

    # structural check: the linear model's K=4 prediction is the sum of its
    # four single-neighbour queries
    rng = np.random.default_rng(909)
    states = np.stack([random_states(rng, 4) for _ in range(50)])
    whole = linear.predict_batch(relative_features(states))
    assert np.max(np.abs(whole - _sum_of_singletons(linear, states))) < 1e-12
    _report(
        9,
        "K=4 probe (trained on K<=3): D error linear "
        f"{err_linear[2]:.3f}, deep set {err_deepset[2]:.3f} (reported, not thresholded)",
    )
