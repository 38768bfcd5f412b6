import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import downwash
from downwash.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_IO, EXIT_OK, _grid_geometry, main
from downwash.field import DownwashParams, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep
from downwash.models import LinearAggModel, fit_grid, load_model, save_model
from downwash.rng import stream

MINI_CFG = """
seed: 21
output_dir: {out}
sweep: {{legs: 4, samples_per_leg: 10, altitudes: [0.3, 1.3]}}
datasets:
  - {{name: single_k1, kind: side_by_side, k: 1, oracle: merging, legs: 8, samples_per_leg: 20}}
  - {{name: leader_follower_k3, kind: leader_follower, k: 3, oracle: merging}}
training: {{epochs: 2, batch_size: 64}}
models:
  naive: {{fit_on: single_k1, resolution: [8, 10]}}
  linear: {{train_on: [single_k1]}}
  deepset: {{train_on: [leader_follower_k3]}}
eval:
  formations: [{{kind: leader_follower, k: 3}}]
  altitudes: [1.3]
  resolution: 16
  slice_resolution: 41
  contour_resolution: 16
"""


def _cfg(tmp_path, out_name="run") -> Path:
    path = tmp_path / "cfg.yaml"
    path.write_text(MINI_CFG.format(out=tmp_path / out_name), encoding="utf-8")
    return path


def test_gen_writes_dataset_and_sidecar(tmp_path):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "run" / "datasets"
    assert (out / "single_k1.csv").exists()
    assert (out / "single_k1.json").exists()
    meta = json.loads((out / "single_k1.json").read_text())
    assert meta["metadata"]["oracle"] == "merging"


def test_gen_is_byte_deterministic(tmp_path):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["gen", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("single_k1.csv", "leader_follower_k3.csv"):
        assert (tmp_path / "a" / "datasets" / name).read_bytes() == (
            tmp_path / "b" / "datasets" / name
        ).read_bytes()


def test_default_config_enumerates_full_suite(tmp_path):
    # the shipped full suite covers K=1 plus the four multi-vehicle formations
    args = [
        "gen",
        "--config",
        "configs/default.yaml",
        "--out",
        str(tmp_path / "suite"),
        "--set",
        "sweep.legs=2",
        "--set",
        "sweep.samples_per_leg=3",
        "--set",
        "sweep.altitudes=[0.8]",
        "--set",
        "datasets=[{name: single_k1, kind: side_by_side, k: 1, oracle: merging},"
        " {name: side_by_side_k2, kind: side_by_side, k: 2, oracle: merging},"
        " {name: stack_k2, kind: stack, k: 2, oracle: merging},"
        " {name: leader_follower_k3, kind: leader_follower, k: 3, oracle: merging},"
        " {name: hybrid3_k3, kind: hybrid3, k: 3, oracle: merging}]",
    ]
    assert main(args) == EXIT_OK
    files = sorted(p.name for p in (tmp_path / "suite" / "datasets").glob("*.csv"))
    assert files == [
        "hybrid3_k3.csv",
        "leader_follower_k3.csv",
        "side_by_side_k2.csv",
        "single_k1.csv",
        "stack_k2.csv",
    ]


def test_train_zero_learning_rate_roundtrips_init(tmp_path):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg)])
    assert (
        main(["train", "--config", str(cfg), "--set", "training.learning_rate=0.0"]) == EXIT_OK
    )
    out = tmp_path / "run" / "models"
    model_a = load_model(out / "learnt_linear.json")
    # retrain with lr=0 again: identical bytes (same init stream, no updates)
    blob_a = (out / "learnt_linear.json").read_bytes()
    main(["train", "--config", str(cfg), "--set", "training.learning_rate=0.0"])
    assert (out / "learnt_linear.json").read_bytes() == blob_a
    assert model_a.metadata["learning_rate"] == 0.0


def test_train_loss_history_reproducible(tmp_path):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    hist_a = (tmp_path / "run" / "models" / "learnt_nonlinear_loss.csv").read_bytes()
    main(["train", "--config", str(cfg)])
    hist_b = (tmp_path / "run" / "models" / "learnt_nonlinear_loss.csv").read_bytes()
    assert hist_a == hist_b


def test_eval_and_report_outputs(tmp_path):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    assert main(["eval", "--config", str(cfg)]) == EXIT_OK
    reports = tmp_path / "run" / "reports"
    table = (reports / "benchmark.csv").read_text().splitlines()
    assert table[0].startswith("formation,k,altitude,model,err_f_n")
    assert len(table) == 1 + 3  # three models, one formation/altitude
    doc = json.loads((reports / "benchmark.json").read_text())
    assert {row["model"] for row in doc["rows"]} == {
        "naive_linear",
        "learnt_linear",
        "learnt_nonlinear",
    }
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    assert (reports / "slice_leader_follower_k3_1p3.csv").exists()
    assert (reports / "contour_leader_follower_k3_1p3_ground_truth.csv").exists()


def test_missing_config_is_io_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.yaml")]) == EXIT_IO


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("sweep: {legs: -3}\n", encoding="utf-8")
    assert main(["gen", "--config", str(path)]) == EXIT_CONFIG


def test_missing_models_reported_clearly(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["eval", "--config", str(cfg)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "naive_linear" in err and "train" in err


def test_bad_override_exit_code(tmp_path):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg), "--set", "nonsense"]) == EXIT_CONFIG


def _cut_last_row(path, keep_cells):
    """Truncate the file a few characters into cell ``keep_cells`` of its last row."""
    head, last = path.read_text(encoding="utf-8").rstrip("\n").rsplit("\n", 1)
    cells = last.split(",")
    path.write_text(head + "\n" + ",".join(cells[:keep_cells] + [cells[keep_cells][:3]]), encoding="utf-8")


# single_k1 rows: time, 7 sufferer cells, k, 7 neighbour cells, 6 truth and 6 measured cells.
@pytest.mark.parametrize("keep_cells", [11, 24], ids=["inside_state", "inside_wrench"])
def test_truncated_dataset_is_format_error(tmp_path, capsys, keep_cells):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "run" / "datasets" / "single_k1.csv"
    _cut_last_row(path, keep_cells)
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


def test_truncated_model_is_format_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    path = tmp_path / "models" / "naive_linear.json"
    save_model(LinearAggModel.initialised(stream(0)), path)
    path.write_bytes(path.read_bytes()[:200])
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


def test_zero_contour_resolution_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["report", "--config", str(cfg), "--set", "eval.contour_resolution=0"]) == EXIT_CONFIG
    assert "eval.contour_resolution" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    code = "import sys, downwash.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(downwash.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "[]"


def _edit_rows(path, edit):
    """Rewrite the data rows of a dataset CSV with ``edit(rows)`` (a list of
    cell lists), then reseal its sidecar's row count and digest, so only the
    content check can object."""
    head, *rows = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
    rows = edit([row.split(",") for row in rows])
    blob = "\r\n".join([head] + [",".join(cells) for cells in rows] + [""]).encode("utf-8")
    path.write_bytes(blob)
    side = path.with_suffix(".json")
    doc = json.loads(side.read_text(encoding="utf-8"))
    doc.update(rows=len(rows), sha256=hashlib.sha256(blob).hexdigest())
    side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _train_fails_on_dataset(tmp_path, capsys, damage, message):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "run" / "datasets" / "single_k1.csv"
    damage(path)
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(path) in err and message in err, err


def test_dataset_cut_at_row_boundary_is_format_error(tmp_path, capsys):
    def cut(path):
        blob = path.read_bytes()
        path.write_bytes(blob[: blob.rindex(b"\r\n", 0, len(blob) - 2) + 2])

    _train_fails_on_dataset(tmp_path, capsys, cut, "319 data rows, the sidecar says 320")


def test_dataset_edited_after_writing_is_format_error(tmp_path, capsys):
    def edit(path):
        blob = path.read_bytes()
        cut = blob.rindex(b"\r\n", 0, len(blob) - 2) + 2
        path.write_bytes(blob[:cut] + blob[cut:].replace(b"0.", b"1.", 1))

    _train_fails_on_dataset(tmp_path, capsys, edit, "does not match the sha256")


def test_header_only_dataset_is_format_error(tmp_path, capsys):
    _train_fails_on_dataset(tmp_path, capsys, lambda path: _edit_rows(path, lambda rows: []), "no data rows")


def test_dataset_without_sidecar_is_format_error(tmp_path, capsys):
    _train_fails_on_dataset(tmp_path, capsys, lambda path: path.with_suffix(".json").unlink(), "sidecar")


def test_nan_dataset_cell_is_format_error(tmp_path, capsys):
    def nan_cell(rows):
        rows[6][20] = "nan"  # a truth cell of data row 7
        return rows

    _train_fails_on_dataset(tmp_path, capsys, lambda path: _edit_rows(path, nan_cell), "data row 7: non-finite")


def test_neighbour_on_the_sufferer_is_format_error(tmp_path, capsys):
    def coincide(rows):
        rows[2][9:12] = rows[2][1:4]  # neighbour position := sufferer position in data row 3
        return rows

    _train_fails_on_dataset(
        tmp_path, capsys, lambda path: _edit_rows(path, coincide), "data row 3: a neighbour coincides"
    )


def test_grid_geometry_vertical_cells():
    sweep = SweepConfig(altitudes=(0.3, 0.8, 1.3))
    _, vertical, planes = _grid_geometry(sweep)
    assert planes == 3 and vertical == pytest.approx((-1.55, -0.05))  # one 0.5 m cell per plane


def test_single_altitude_grid_cell_is_one_spacing_high():
    sweep = SweepConfig(legs=4, samples_per_leg=20, altitudes=(1.3,), spacing=0.4)
    lateral, vertical, planes = _grid_geometry(sweep)
    assert planes == 1 and vertical == pytest.approx((-1.5, -1.1))
    data = generate_sweep(
        Formation(FormationKind.SIDE_BY_SIDE, 1), sweep, "additive", DownwashParams(), noise=NoiseParams(0.0, 0.0)
    )
    grid = fit_grid(data, resolution=(4, 4, planes), lateral_bounds=lateral, vertical_bounds=vertical)
    # the one plane answers within spacing/2 of its altitude and nowhere else
    on_plane = grid.query([0.0, 0.0, -1.3])
    assert np.any(on_plane != 0.0)
    np.testing.assert_allclose(grid.query([0.0, 0.0, -1.3 + 0.19]), on_plane, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grid.query([0.0, 0.0, -1.3 - 0.19]), on_plane, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(grid.query([0.0, 0.0, -1.3 + 0.21]), np.zeros(6))
    np.testing.assert_array_equal(grid.query([0.0, 0.0, -1.3 - 0.21]), np.zeros(6))
