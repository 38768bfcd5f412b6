import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import downwash
from downwash import cli
from downwash.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_IO, EXIT_OK, main
from downwash.models import DeepSetModel, GridLookupModel, LinearAggModel, load_model, save_model
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


def test_train_reads_each_dataset_once(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg)])
    loads = []
    real = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", lambda path: loads.append(Path(path).name) or real(path))
    # single_k1 feeds the grid and both learnt models
    overrides = ["--set", "models.linear.train_on=[single_k1, leader_follower_k3]"]
    overrides += ["--set", "models.deepset.train_on=[single_k1, leader_follower_k3]"]
    assert main(["train", "--config", str(cfg), *overrides]) == EXIT_OK
    assert sorted(loads) == ["leader_follower_k3.csv", "single_k1.csv"]


@pytest.mark.parametrize(
    "key, value",
    [("models.naive.fit_on", "nope"), ("models.linear.train_on", "[nope]"), ("models.deepset.train_on", "[nope]")],
)
def test_unconfigured_dataset_name_is_config_error(tmp_path, capsys, key, value):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--set", f"{key}={value}"]) == EXIT_CONFIG
    assert f"{key}: no dataset named 'nope'" in capsys.readouterr().err
    assert not list((tmp_path / "run" / "models").rglob("*"))


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


def _save_models(models_dir) -> dict:
    """Small valid model files under every name ``eval`` reads; their paths by name."""
    models = {
        "naive_linear": GridLookupModel([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)], np.ones((4, 4, 2, 6))),
        "learnt_linear": LinearAggModel.initialised(stream(0), hidden=(8,)),
        "learnt_nonlinear": DeepSetModel.initialised(stream(1), embed_dim=8, phi_hidden=(8,), decoder_hidden=(8,)),
    }
    paths = {name: models_dir / f"{name}.json" for name in models}
    for name, model in models.items():
        save_model(model, paths[name])
    return paths


@pytest.mark.parametrize("name", ["naive_linear", "learnt_nonlinear"], ids=["grid_value", "set_network_parameter"])
def test_non_finite_model_parameter_is_format_error(tmp_path, capsys, name):
    cfg = _cfg(tmp_path)
    path = _save_models(tmp_path / "models")[name]
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_OK
    model = load_model(path)
    params = model.values if name == "naive_linear" else model.flat
    params.reshape(-1)[7] = np.nan
    save_model(model, path)
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


def _v1_mlp_doc(net) -> dict:
    """A network as version-1 model files stored it: nested decimal lists."""
    return {
        "dims": net.layer_dims,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _one_float_short(doc, model):
    doc["psi"]["flat"] = base64.b64encode(base64.b64decode(doc["psi"]["flat"])[:-8]).decode("ascii")


def _outside_the_alphabet(doc, model):
    # without validation the decoder would drop the "*" and read the payload as intact
    doc["psi"]["flat"] = doc["psi"]["flat"][:8] + "*" + doc["psi"]["flat"][8:]


def _version_1(doc, model):
    doc["version"] = 1
    doc["psi"] = _v1_mlp_doc(model.encoder)


def _fractional_dims(doc, model):
    # int() would read 8.5 as 8, and the payload does hold the values of [6, 8, 6]
    doc["psi"]["dims"] = [6, 8.5, 6]


def _infinite_bounds(doc, model):
    # json reads Infinity; without validation every grid error would be blank
    doc["bounds"][2] = [-float("inf"), float("inf")]


def _string_and_bool_bounds(doc, model):
    # float() would read these as (-1.0, 1.0)
    doc["bounds"][2] = ["-1.0", True]


@pytest.mark.parametrize(
    "name, edit, needle",
    [
        ("learnt_linear", _one_float_short, "bytes"),
        ("learnt_linear", _outside_the_alphabet, ""),
        ("learnt_linear", _version_1, "train"),
        ("learnt_linear", _fractional_dims, "dims"),
        ("naive_linear", _infinite_bounds, "bounds"),
        ("naive_linear", _string_and_bool_bounds, "bounds"),
    ],
    ids=[
        "one_float_short",
        "outside_the_alphabet",
        "version_1",
        "fractional_dims",
        "infinite_bounds",
        "string_and_bool_bounds",
    ],
)
def test_malformed_model_payload_is_format_error(tmp_path, capsys, name, edit, needle):
    cfg = _cfg(tmp_path)
    path = _save_models(tmp_path / "models")[name]
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc, load_model(path))
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(path) in err and needle in err.replace(str(path), "")


def test_zero_grid_resolution_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["train", "--config", str(cfg), "--set", "models.naive.resolution=[0, 50]"]) == EXIT_CONFIG
    assert "models.naive.resolution" in capsys.readouterr().err


def test_zero_contour_resolution_is_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["report", "--config", str(cfg), "--set", "eval.contour_resolution=0"]) == EXIT_CONFIG
    assert "eval.contour_resolution" in capsys.readouterr().err


def test_colliding_report_names_are_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["report", "--config", str(cfg), "--set", "eval.altitudes=[1.3, 1.3000001]"]) == EXIT_CONFIG
    assert "eval.altitudes[1]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


def _k3_single_k1(text):
    """The config with ``single_k1`` generated as a K=3 formation and the
    grid fitted on another (K=1) dataset."""
    text = text.replace(
        "name: single_k1, kind: side_by_side, k: 1",
        "name: single_k1, kind: leader_follower, k: 3, oracle: merging}\n  - {name: grid_k1, kind: side_by_side, k: 1",
    )
    return text.replace("fit_on: single_k1", "fit_on: grid_k1")


@pytest.mark.parametrize(
    "stale, overrides, message",
    [
        (_k3_single_k1, [], "needs K=1 records, got K=3"),
        (lambda text: text, ["--set", "sweep.lateral_extent=0.001"], "no samples fall inside the grid bounds"),
    ],
    ids=["k3_dataset", "grid_misses_the_samples"],
)
def test_stale_grid_dataset_is_format_error(tmp_path, capsys, stale, overrides, message):
    cfg = _cfg(tmp_path)
    gen_cfg = tmp_path / "gen.yaml"
    gen_cfg.write_text(stale(cfg.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "stale")]) == EXIT_OK
    datasets = tmp_path / "stale" / "datasets"
    assert main(["train", "--config", str(cfg), "--datasets-dir", str(datasets), *overrides]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(datasets / "single_k1.csv") in err and message in err, err

