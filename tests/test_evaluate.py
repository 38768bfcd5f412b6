import numpy as np
import pytest
from scipy import signal

from downwash.evaluate import (
    EvalReport,
    benchmark,
    contour_grid,
    contour_to_csv,
    count_peaks,
    integrated_plane_error,
    slice_profile,
)
from downwash.field import AdditiveOracle, DownwashParams, MergeParams, MergingOracle, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.models import fit_grid

P = DownwashParams()
M = MergeParams()
LF3 = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
SBS2 = Formation(FormationKind.SIDE_BY_SIDE, 2, 0.5)
K1 = Formation(FormationKind.SIDE_BY_SIDE, 1, 0.5)

ADD = AdditiveOracle(P)
MER = MergingOracle(P, M)


def zero_predictor(feats):
    return np.zeros((len(feats), 6))


def support_count(values, frac=0.5):
    """Grid cells at or above ``frac`` of the grid maximum."""
    return int(np.count_nonzero(values >= frac * values.max()))


def test_truth_as_model_has_zero_error():
    err = integrated_plane_error(ADD, ADD, LF3, 0.8, resolution=16)
    valid = ~np.isnan(err)
    assert valid.sum() == 5  # yaw truth is identically zero -> n/a
    np.testing.assert_array_equal(err[valid], np.zeros(5))


def test_zero_predictor_has_unit_error_on_active_axes():
    err = integrated_plane_error(zero_predictor, ADD, LF3, 0.8, resolution=16)
    np.testing.assert_allclose(err[~np.isnan(err)], 1.0, rtol=1e-12)
    assert np.isnan(err[5])


def test_resolution_below_eight_rejected():
    with pytest.raises(ValueError, match="resolution"):
        integrated_plane_error(ADD, ADD, LF3, 0.8, resolution=4)
    with pytest.raises(ValueError, match="resolution"):
        benchmark({"a": ADD}, [LF3], ADD, altitudes=[0.8], resolution=4)


def test_naive_degrades_from_additive_to_merging_truth():
    cfg = SweepConfig(legs=20, samples_per_leg=120, altitudes=(1.3,))
    data = generate_sweep(K1, cfg, "additive", P, noise=NoiseParams(seed=13))
    naive = fit_grid(
        data,
        resolution=(20, 30, 1),
        lateral_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        vertical_bounds=(-1.35, -1.25),
    )
    err_add = integrated_plane_error(naive.predict_batch, ADD, LF3, 1.3, resolution=32)
    err_mer = integrated_plane_error(naive.predict_batch, MER, LF3, 1.3, resolution=32)
    assert err_mer[2] > err_add[2]


def test_metric_stable_under_resolution_refinement():
    coarse = integrated_plane_error(ADD, MER, LF3, 0.8, resolution=64)
    fine = integrated_plane_error(ADD, MER, LF3, 0.8, resolution=128)
    for ax in range(5):
        assert abs(coarse[ax] - fine[ax]) / fine[ax] < 0.02


def test_slice_profile_three_additive_peaks_half_metre_apart():
    prof = slice_profile({}, ADD, LF3, 0.3, axis="e", resolution=401)
    truth = prof.columns["ground_truth"]
    assert count_peaks(truth) == 3
    peaks, _ = signal.find_peaks(truth, prominence=0.2 * (truth.max() - truth.min()))
    gaps = np.diff(prof.positions[peaks])
    np.testing.assert_allclose(gaps, 0.5, atol=0.02)


def test_slice_profile_single_vehicle_peak_centres_on_neighbour():
    prof = slice_profile({}, ADD, K1, 0.8, axis="e", resolution=401)
    truth = prof.columns["ground_truth"]
    assert count_peaks(truth) == 1
    assert abs(prof.positions[int(np.argmax(truth))]) < 0.01


def test_slice_profile_merging_merges_peaks_at_altitude():
    prof = slice_profile({}, MER, LF3, 1.3, axis="e", resolution=401)
    assert count_peaks(prof.columns["ground_truth"]) < 3


def test_slice_profile_includes_model_columns(tmp_path):
    prof = slice_profile({"zero": zero_predictor}, ADD, K1, 0.8, resolution=21)
    assert list(prof.columns) == ["zero", "ground_truth"]
    assert np.all(prof.columns["zero"] == 0.0)
    out = tmp_path / "slice.csv"
    prof.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "e_position,zero,ground_truth"


def test_contour_symmetric_formation_reflects_in_n():
    _, _, values = contour_grid(ADD, SBS2, 0.8, resolution=32)
    np.testing.assert_allclose(values, values[::-1, :], atol=1e-9)


def test_contour_additive_support_exceeds_merging():
    _, _, add_vals = contour_grid(ADD, LF3, 1.3, resolution=48)
    _, _, mer_vals = contour_grid(MER, LF3, 1.3, resolution=48)
    assert support_count(add_vals) > support_count(mer_vals)


def test_contour_zero_predictor_all_zero(tmp_path):
    n_ax, e_ax, values = contour_grid(zero_predictor, LF3, 1.3, resolution=16)
    assert np.all(values == 0.0)
    contour_to_csv(n_ax, e_ax, values, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text().splitlines()[0] == "n,e,f_d"


def test_benchmark_same_model_twice_gives_identical_columns():
    report = benchmark({"a": ADD, "b": ADD}, [LF3], MER, altitudes=[1.3], resolution=16)
    rows = {row["model"]: row for row in report.rows}
    assert rows["a"]["formation"] == LF3.label() and rows["a"]["altitude"] == 1.3
    err_a, err_b = np.array(rows["a"]["errors"]), np.array(rows["b"]["errors"])
    np.testing.assert_array_equal(err_a[~np.isnan(err_a)], err_b[~np.isnan(err_b)])


def test_benchmark_marks_lower_error_as_winner():
    report = benchmark({"truth": MER, "zero": zero_predictor}, [LF3], MER, altitudes=[1.3], resolution=16)
    rows = {row["model"]: row for row in report.rows}
    assert rows["truth"]["wins"][2] is True
    assert rows["zero"]["wins"][2] is False
    # n/a axes never get a winner
    assert rows["truth"]["wins"][5] is False and rows["zero"]["wins"][5] is False


def test_report_files_are_deterministic(tmp_path):
    paths = []
    for tag in ("x", "y"):
        report = benchmark({"zero": zero_predictor}, [LF3], ADD, altitudes=[0.8], resolution=16)
        report.config["seed"] = 1
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        paths.append((csv_path, json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_count_peaks_flat_signal_is_zero():
    assert count_peaks(np.zeros(50)) == 0
