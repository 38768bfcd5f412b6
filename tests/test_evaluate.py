import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

import downwash
from downwash.evaluate import (
    PEAK_PROMINENCE,
    EvalReport,
    EvalSettings,
    altitude_tag,
    benchmark,
    count_peaks,
    integrated_plane_error,
    peak_indices,
    predict_batches,
    report_planes,
    write_report,
)
from downwash.field import DownwashParams, MergeParams, NoiseParams, make_oracle
from downwash.formations import Formation, FormationKind, SweepConfig, centroid_features, generate_sweep
from downwash.models import DeepSetModel, LinearAggModel, fit_grid
from downwash.rng import stream

P = DownwashParams()
M = MergeParams()
LF3 = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)
SBS2 = Formation(FormationKind.SIDE_BY_SIDE, 2, 0.5)
K1 = Formation(FormationKind.SIDE_BY_SIDE, 1, 0.5)

ADD = make_oracle("additive", P)
MER = make_oracle("merging", P, M)
SPEED = SweepConfig.speed


def ev(formation, altitude, **settings):
    """The evaluation settings of one plane."""
    return EvalSettings((formation,), altitudes=(altitude,), **settings)


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
        ev(LF3, 0.8, resolution=4)


def test_naive_degrades_from_additive_to_merging_truth():
    cfg = SweepConfig(legs=20, samples_per_leg=120, altitudes=(1.3,))
    data = generate_sweep(K1, cfg, "additive", P, noise=NoiseParams(seed=13))
    naive = fit_grid(data, cfg, (20, 30))
    err_add = integrated_plane_error(naive.predict_batch, ADD, LF3, 1.3, resolution=32)
    err_mer = integrated_plane_error(naive.predict_batch, MER, LF3, 1.3, resolution=32)
    assert err_mer[2] > err_add[2]


def test_metric_stable_under_resolution_refinement():
    coarse = integrated_plane_error(ADD, MER, LF3, 0.8, resolution=64)
    fine = integrated_plane_error(ADD, MER, LF3, 0.8, resolution=128)
    for ax in range(5):
        assert abs(coarse[ax] - fine[ax]) / fine[ax] < 0.02


def slice_of(report, name="ground_truth"):
    """The first plane's slice column ``name`` of a :func:`report_planes` result."""
    return report[2][0][0][name]


def test_slice_profile_three_additive_peaks_half_metre_apart():
    report = report_planes({"ground_truth": ADD}, ev(LF3, 0.3, slice_resolution=401), SPEED)
    truth = slice_of(report)
    assert count_peaks(truth) == 3
    peaks, _ = signal.find_peaks(truth, prominence=PEAK_PROMINENCE * (truth.max() - truth.min()))
    gaps = np.diff(report[0][peaks])
    np.testing.assert_allclose(gaps, 0.5, atol=0.02)


def test_slice_profile_single_vehicle_peak_centres_on_neighbour():
    report = report_planes({"ground_truth": ADD}, ev(K1, 0.8, slice_resolution=401), SPEED)
    truth = slice_of(report)
    assert count_peaks(truth) == 1
    assert abs(report[0][int(np.argmax(truth))]) < 0.01


def test_slice_profile_merging_merges_peaks_at_altitude():
    report = report_planes({"ground_truth": MER}, ev(LF3, 1.3, slice_resolution=401), SPEED)
    assert count_peaks(slice_of(report)) < 3


def test_slice_profile_includes_model_columns(tmp_path):
    one = ev(K1, 0.8, slice_resolution=21)
    report = report_planes({"zero": zero_predictor, "ground_truth": ADD}, one, SPEED)
    columns = report[2][0][0]
    assert list(columns) == ["zero", "ground_truth"]
    assert np.all(columns["zero"] == 0.0)
    out = write_report(one, tmp_path, *report)[0]
    assert out.name == "slice_side_by_side_k1_0p8.csv"
    header = out.read_text().splitlines()[0]
    assert header == "e_position,zero,ground_truth"


def test_contour_symmetric_formation_reflects_in_n():
    grids = report_planes({"add": ADD}, ev(SBS2, 0.8, contour_resolution=32), SPEED)[2][0][1]
    np.testing.assert_allclose(grids["add"], grids["add"][::-1, :], atol=1e-9)


def test_contour_additive_support_exceeds_merging():
    grids = report_planes({"add": ADD, "mer": MER}, ev(LF3, 1.3, contour_resolution=48), SPEED)[2][0][1]
    assert support_count(grids["add"]) > support_count(grids["mer"])


def test_contour_zero_predictor_all_zero(tmp_path):
    one = ev(LF3, 1.3, contour_resolution=16)
    report = report_planes({"zero": zero_predictor}, one, SPEED)
    assert np.all(report[2][0][1]["zero"] == 0.0)
    contour = write_report(one, tmp_path, *report)[1]
    assert contour.name == "contour_leader_follower_k3_1p3_zero.csv"
    assert contour.read_text().splitlines()[0] == "n,e,f_d"


def test_contour_grid_passes_one_batch_to_each_callable_once():
    batches = []

    def recording(feats):
        batches.append(feats)
        return MER(feats)

    callables = {"a": recording, "b": recording, "zero": zero_predictor}
    _, axis, [(columns, grids)] = report_planes(callables, ev(LF3, 1.3, contour_resolution=12), SPEED)
    # one batch: the plane's 201 slice rows, then its 12 x 12 contour rows
    assert len(batches) == 2 and batches[0] is batches[1] and batches[0].shape == (201 + 144, 3, 6)
    assert list(grids) == ["a", "b", "zero"] and list(columns) == ["a", "b", "zero"]
    forces = MER(batches[0])[:, 2]
    np.testing.assert_array_equal(columns["a"], forces[:201])
    np.testing.assert_array_equal(grids["a"], forces[201:].reshape(12, 12))
    np.testing.assert_array_equal(grids["b"], grids["a"])
    alone = report_planes({"mer": MER}, ev(LF3, 1.3, contour_resolution=12), SPEED)[2][0][1]
    np.testing.assert_array_equal(alone["mer"], grids["a"])
    np.testing.assert_array_equal(axis, (np.arange(12) + 0.5) * (2.0 / 12) - 1.0)


def test_predict_batches_calls_each_callable_once_per_k():
    """Batches of K = 2, 3, 2, 4: one call per K in first-seen order, results
    in input order, each bitwise equal to the callable on that batch alone."""
    cfg = SweepConfig(legs=6, samples_per_leg=20, altitudes=(0.8, 1.3))
    grid = fit_grid(generate_sweep(K1, cfg, "merging", P, M, NoiseParams(seed=3)), cfg, (6, 8))
    callables = [
        grid.predict_batch,
        LinearAggModel.initialised(stream(5)).predict_batch,
        DeepSetModel.initialised(stream(6)).predict_batch,
        MER,
    ]
    stack2 = Formation(FormationKind.STACK, 2, 0.5)
    lf4 = Formation(FormationKind.LEADER_FOLLOWER, 4, 0.5)
    rng = np.random.default_rng(0)
    batches = [
        centroid_features(formation, rng.uniform(-1.0, 1.0, (m, 2)), altitude, SPEED)
        for formation, m, altitude in ((SBS2, 17, 0.8), (LF3, 64, 1.3), (stack2, 33, 1.3), (lf4, 5, 0.3))
    ]
    calls = []

    def counted(fn):
        def call(feats):
            calls.append((fn, feats.shape))
            return fn(feats)

        return call

    out = predict_batches([counted(fn) for fn in callables], batches)
    shapes = [(50, 2, 6), (64, 3, 6), (5, 4, 6)]
    assert calls == [(fn, shape) for shape in shapes for fn in callables]
    assert len(out) == len(batches)
    for feats, results in zip(batches, out):
        assert len(results) == len(callables)
        for fn, result in zip(callables, results):
            alone = fn(feats)
            assert result.shape == alone.shape == (len(feats), 6) and result.dtype == alone.dtype
            assert result.tobytes() == alone.tobytes()


def test_benchmark_same_model_twice_gives_identical_columns():
    report = benchmark({"a": ADD, "b": ADD}, MER, ev(LF3, 1.3, resolution=16), SPEED)
    rows = {row["model"]: row for row in report.rows}
    assert rows["a"]["formation"] == LF3.label() and rows["a"]["altitude"] == 1.3
    err_a, err_b = np.array(rows["a"]["errors"]), np.array(rows["b"]["errors"])
    np.testing.assert_array_equal(err_a[~np.isnan(err_a)], err_b[~np.isnan(err_b)])
    # on a tie the first model listed wins
    finite = np.isfinite(err_a)
    assert finite.sum() == 5
    assert rows["a"]["wins"] == finite.tolist() and rows["b"]["wins"] == [False] * 6


def test_benchmark_marks_lower_error_as_winner():
    # two planes that share a label: each gets its own winners
    wide = Formation(FormationKind.LEADER_FOLLOWER, 3, 1.0)
    report = benchmark({"truth": MER, "zero": zero_predictor}, MER, EvalSettings((LF3, wide), resolution=16), SPEED)
    assert [row["formation"] for row in report.rows] == [LF3.label()] * 4
    for truth_row, zero_row in (report.rows[:2], report.rows[2:]):
        assert truth_row["wins"][2] is True
        assert zero_row["wins"][2] is False
        # n/a axes never get a winner
        assert truth_row["wins"][5] is False and zero_row["wins"][5] is False


# per-axis offsets from the truth: ties in |offset|, and non-finite errors
OFFSETS = st.lists(st.sampled_from([0.0, 0.25, -0.25, 0.5, 1.0, math.nan, math.inf]), min_size=6, max_size=6)
NAN, INF = [math.nan] * 6, [math.inf] * 6


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(OFFSETS, min_size=1, max_size=4))
@example([[0.5] * 6, [-0.5] * 6, [0.25, 0.0, 1.0, 0.0, math.nan, 0.5]])
@example([NAN, INF, NAN])
def test_benchmark_winners_are_the_first_lowest_finite_errors(offsets):
    """Stubs that predict a constant truth plus constant per-axis offsets have
    error |offset| / |truth| on each axis, and yaw's truth is all zero; the
    winners are those of a loop over the rule: per axis, the first model in
    order with the lowest finite error, and none where no error is finite."""
    level = np.array([1.0, -2.0, 0.5, 4.0, -1.0, 0.0])

    def constant(row):
        return lambda feats: np.tile(row, (len(feats), 1))

    models = {f"m{i}": constant(level + np.array(row)) for i, row in enumerate(offsets)}
    report = benchmark(models, constant(level), ev(LF3, 1.3, resolution=8), SPEED)
    errors = [row["errors"] for row in report.rows]
    expected = np.abs(np.array(offsets)[:, :5]) / np.abs(level[:5])
    np.testing.assert_allclose(np.array(errors)[:, :5], expected, rtol=1e-12)
    assert all(math.isnan(row[5]) for row in errors)
    for ax in range(6):
        finite = [i for i, row in enumerate(errors) if math.isfinite(row[ax])]
        winner = min(finite, key=lambda i: errors[i][ax]) if finite else None
        assert [row["wins"][ax] for row in report.rows] == [i == winner for i in range(len(offsets))]


def test_report_files_are_deterministic(tmp_path):
    paths = []
    for tag in ("x", "y"):
        report = benchmark({"zero": zero_predictor}, ADD, ev(LF3, 0.8, resolution=16), SPEED)
        report.config["seed"] = 1
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        paths.append((csv_path, json_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def _table(value):
    row = {"formation": "x", "k": 1, "altitude": 0.8, "model": "m", "errors": [value] * 6, "wins": [False] * 6}
    return EvalReport(rows=[row])


def _written(report):
    """What :func:`write_report` writes of one plane's slice columns and
    contour grids, at the 0.8 m plane of ``K1``."""
    return lambda out, v: write_report(ev(K1, 0.8), out, np.zeros(2), np.zeros(2), [report(v)])


def _table_to(method):
    """The error table of :func:`_table` written to ``out / "report"`` by ``method``."""

    def write(out, v):
        getattr(_table(v), method)(out / "report")
        return [out / "report"]

    return write


# each writes its files into a directory and returns their paths
REPORT_WRITERS = {
    "slice_csv": _written(lambda v: ({"ground_truth": np.full(2, v)}, {})),
    "contour_csv": _written(lambda v: ({"ground_truth": np.full(2, v)}, {"m": np.full((2, 2), v)})),
    "table_csv": _table_to("to_csv"),
    "table_json": _table_to("to_json"),
}


@pytest.mark.parametrize("write", REPORT_WRITERS.values(), ids=REPORT_WRITERS.keys())
def test_failed_rename_keeps_the_previous_report(tmp_path, monkeypatch, write):
    """The rename of the writer's last file fails: that file keeps its bytes,
    the files before it hold the new ones, and no temp file is left."""
    new = [path.read_bytes() for path in write(tmp_path / "new", 2.0)]
    paths = write(tmp_path / "old", 1.0)
    before = [path.read_bytes() for path in paths]
    assert before[-1] != new[-1]
    replace = os.replace

    def fail(src, dst):
        if dst == paths[-1]:
            raise OSError("rename failed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write(tmp_path / "old", 2.0)
    assert [path.read_bytes() for path in paths] == [*new[:-1], before[-1]]
    assert sorted(p.name for p in (tmp_path / "old").iterdir()) == sorted(path.name for path in paths)


EDGE = [-0.0, 1e-05, 1e16, float("nan"), float("inf"), -float("inf"), 0.1 + 0.2]


def _csv_writer_bytes(header, table):
    """The rows as ``csv.writer`` writes them, one float ``repr`` per cell:
    the reference the float-row encoder must match."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows([header, *([repr(v) for v in row] for row in table.tolist())])
    return fh.getvalue().encode("utf-8")


def test_slice_file_is_the_bytes_csv_writer_writes(tmp_path):
    for rows in (len(EDGE), 0):
        positions = np.array(EDGE[::-1])[:rows]
        wrenches = np.zeros((rows, 6))
        wrenches[:, 2] = np.roll(EDGE, 3)[:rows]
        # a column that is a strided view, as report_planes' wrench[:, 2] is
        columns = {"edge": np.array(EDGE)[:rows], "ground_truth": wrenches[:, 2]}
        [path] = write_report(ev(K1, 0.8, slice_axis="n"), tmp_path, positions, np.zeros(2), [(columns, {})])
        body = path.read_bytes()
        table = np.column_stack([positions, *columns.values()])
        assert body == _csv_writer_bytes(["n_position", "edge", "ground_truth"], table)
        for cell in (b"-0.0", b"1e-05", b"1e+16", b"nan", b"inf", b"-inf", b"0.30000000000000004"):
            assert (cell in body) == bool(rows)


def test_contour_files_are_the_bytes_csv_writer_writes(tmp_path):
    axis = np.array([-0.0, 1e-05, 1e16])
    grids = {"a": np.reshape(EDGE + [2.5, 1e-300], (3, 3)), "b": -np.arange(9.0).reshape(3, 3)}
    written = write_report(ev(K1, 0.8), tmp_path, np.zeros(0), axis, [({}, grids)])
    paths = dict(zip(grids, written[1:]))
    assert [path.name for path in written] == [
        "slice_side_by_side_k1_0p8.csv",
        "contour_side_by_side_k1_0p8_a.csv",
        "contour_side_by_side_k1_0p8_b.csv",
    ]
    n, e = np.meshgrid(axis, axis, indexing="ij")
    for name, values in grids.items():
        table = np.column_stack([n.ravel(), e.ravel(), values.ravel()])
        assert paths[name].read_bytes() == _csv_writer_bytes(["n", "e", "f_d"], table)
    # n-major rows: e varies fastest
    assert b"\r\n-0.0,1e+16,-2.0\r\n1e-05,-0.0,-3.0\r\n" in paths["b"].read_bytes()


def test_report_header_that_csv_would_quote_is_refused(tmp_path):
    for name in ("a,b", 'say "x"', "two\nlines", ""):
        with pytest.raises(ValueError, match="quote"):
            write_report(ev(K1, 0.8), tmp_path, np.zeros(2), np.zeros(2), [({name: np.zeros(2)}, {})])
    assert not any(tmp_path.iterdir())


def test_count_peaks_flat_signal_is_zero():
    assert count_peaks(np.zeros(50)) == 0


# runs of one value: plateaus, flat arrays, exact ties with neighbours, and ±inf and NaN cells
PEAK_CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(PEAK_CELLS, st.integers(1, 4)), min_size=1, max_size=16))
@example([(0.0, 1), (2.0, 1), (1.0, 1), (5.0, 1), (0.0, 1)])  # first prominence 1.0 is 0.2 * 5.0 exactly
@example([(0.0, 1), (1.0, 3), (0.0, 1)])  # a three-wide plateau
@example([(0.0, 1), (1.0, 2), (2.0, 1), (1.0, 4), (0.0, 1)])  # plateaus on both flanks of a peak
@example([(1.0, 1)])
@example([(0.0, 1), (1.0, 1)])
@example([(0.0, 1), (1.0, 1), (0.0, 1)])
@example([(1.0, 1), (1.0, 1), (1.0, 1)])
@example([(math.inf, 3)])
@example([(-math.inf, 1), (0.0, 1), (-math.inf, 1)])
@example([(0.0, 1), (math.inf, 1), (0.0, 1), (1.0, 1), (0.0, 1)])
@example([(0.0, 1), (1.0, 1), (math.nan, 1), (1.0, 1), (0.0, 1)])
def test_peak_indices_are_scipy_find_peaks(runs):
    """``scipy.signal.find_peaks`` with the prominence threshold is the
    oracle: the same peaks at the same indices, and ``count_peaks`` counts them."""
    values = np.repeat([value for value, _ in runs], [count for _, count in runs])
    with np.errstate(invalid="ignore"):  # an all-inf range is inf - inf: NaN, which keeps no peak
        expected, _ = signal.find_peaks(values, prominence=PEAK_PROMINENCE * (values.max() - values.min()))
        np.testing.assert_array_equal(peak_indices(values), expected)
        assert count_peaks(values) == len(expected)


def test_count_peaks_loads_no_scipy():
    """Criterion 5b's measure needs no scipy: counting a real slice's peaks
    leaves no scipy module loaded."""
    code = (
        "import sys\n"
        "from downwash.evaluate import EvalSettings, count_peaks, report_planes\n"
        "from downwash.field import DownwashParams, make_oracle\n"
        "from downwash.formations import Formation, FormationKind, SweepConfig\n"
        "lf3 = Formation(FormationKind.LEADER_FOLLOWER, 3, 0.5)\n"
        "ev = EvalSettings((lf3,), altitudes=(0.3,), slice_resolution=401)\n"
        "truth = make_oracle('additive', DownwashParams())\n"
        "columns = report_planes({'ground_truth': truth}, ev, SweepConfig.speed)[2][0][0]\n"
        "print(count_peaks(columns['ground_truth']), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(downwash.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "3 []"


def test_n_slice_meets_both_side_by_side_columns(tmp_path):
    """The n slice crosses the pair, one peak under each vehicle 0.25 m either
    side of the centroid; the e slice runs between them and sees one."""
    planes = {axis: ev(SBS2, 0.3, slice_axis=axis, slice_resolution=401) for axis in ("n", "e")}
    reports = {axis: report_planes({"ground_truth": ADD}, one, SPEED) for axis, one in planes.items()}
    across = slice_of(reports["n"])
    assert count_peaks(across) == 2
    assert write_report(planes["n"], tmp_path, *reports["n"])[0].read_text().startswith("n_position,ground_truth\n")
    peaks, _ = signal.find_peaks(across, prominence=PEAK_PROMINENCE * (across.max() - across.min()))
    np.testing.assert_allclose(reports["n"][0][peaks], [-0.25, 0.25], atol=0.02)
    assert count_peaks(slice_of(reports["e"])) == 1
    with pytest.raises(ValueError, match="'x'"):
        ev(SBS2, 0.3, slice_axis="x")


def _plane_bytes(plane):
    """One plane of a :func:`report_planes` result as bytes, for bitwise comparison."""
    return [[(name, values.tobytes()) for name, values in part.items()] for part in plane]


def test_planes_set_the_order_of_the_table_and_the_report(tmp_path):
    """Two formations of different K at two altitudes: ``predict_batches``
    groups the planes by K, and both stages still follow ``planes()``, each
    plane bitwise as it comes out alone."""
    settings = EvalSettings(
        (LF3, SBS2), altitudes=(0.8, 1.3), resolution=16, slice_resolution=21, contour_resolution=12
    )
    planes = settings.planes()
    assert planes == [(LF3, 0.8), (LF3, 1.3), (SBS2, 0.8), (SBS2, 1.3)]
    models = {"add": ADD, "zero": zero_predictor}
    report = benchmark(models, MER, settings, SPEED)
    expected = [(formation.label(), altitude, name) for formation, altitude in planes for name in models]
    assert [(row["formation"], row["altitude"], row["model"]) for row in report.rows] == expected
    rows = iter(report.rows)
    for formation, altitude in planes:
        for fn in models.values():
            alone = integrated_plane_error(fn, MER, formation, altitude, resolution=16)
            assert np.array(next(rows)["errors"]).tobytes() == alone.tobytes()
    callables = {**models, "ground_truth": MER}
    positions, axis, entries = report_planes(callables, settings, SPEED)
    assert len(entries) == len(planes)
    for (formation, altitude), entry in zip(planes, entries):
        one = dataclasses.replace(settings, formations=(formation,), altitudes=(altitude,))
        alone = report_planes(callables, one, SPEED)
        assert alone[0].tobytes() == positions.tobytes() and alone[1].tobytes() == axis.tobytes()
        assert _plane_bytes(entry) == _plane_bytes(alone[2][0])
    paths = write_report(settings, tmp_path, positions, axis, entries)
    tags = [f"{formation.label()}_{altitude_tag(altitude)}" for formation, altitude in planes]
    assert [path.name for path in paths] == [
        name for tag in tags for name in [f"slice_{tag}.csv", *(f"contour_{tag}_{n}.csv" for n in callables)]
    ]
