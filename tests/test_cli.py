import base64
import dataclasses
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
from downwash.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_FORMAT, EXIT_IO, EXIT_OK, main
from downwash.config import load_config
from downwash.dataset import FORMAT_VERSION, _columns
from downwash.evaluate import EvalReport, altitude_tag, benchmark, write_report
from downwash.field import make_oracle
from downwash.formations import centroid_features, midpoints
from downwash.models import (
    DeepSetModel,
    DeepSetSettings,
    GridLookupModel,
    LinearAggModel,
    LinearSettings,
    load_model,
    save_model,
)
from downwash.rng import normal_rows, stream, substream_seed

from conftest import sealed_digest

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


def test_loss_file_cells_are_epoch_and_loss_reprs(tmp_path):
    cfg = _cfg(tmp_path)
    main(["gen", "--config", str(cfg)])
    out = tmp_path / "run" / "models"
    for epochs in (2, 0):
        assert main(["train", "--config", str(cfg), "--set", f"training.epochs={epochs}"]) == EXIT_OK
        for name in ("learnt_linear", "learnt_nonlinear"):
            body = (out / f"{name}_loss.csv").read_bytes()
            lines = body.split(b"\r\n")
            assert lines.pop() == b"" and not any(b"\n" in line or b"\r" in line for line in lines)
            assert lines[0] == b"epoch,loss" and len(lines) == 1 + epochs
            for i, line in enumerate(lines[1:]):
                epoch, loss = line.decode().split(",")
                assert epoch == str(i) and loss == repr(float(loss))
            if not epochs:
                assert body == b"epoch,loss\r\n"


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


def test_eval_and_report_match_a_per_plane_computation(tmp_path, monkeypatch):
    """Planes of K = 2, 2, 3 at two altitudes: each stage calls the oracle once
    per K, and writes the bytes that computing each plane on its own gives."""
    cfg_path = _cfg(tmp_path)
    overrides = [
        "eval.formations=[{kind: side_by_side, k: 2}, {kind: stack, k: 2}, {kind: leader_follower, k: 3}]",
        "eval.altitudes=[0.3, 1.3]",
    ]
    args = [arg for value in overrides for arg in ("--set", value)]
    assert main(["gen", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    truth_calls = []

    def counted_oracle(*params):
        oracle = make_oracle(*params)

        def truth(feats):
            truth_calls.append(feats.shape[1])
            return oracle(feats)

        return truth

    monkeypatch.setattr(cli, "make_oracle", counted_oracle)
    for stage in ("eval", "report"):
        truth_calls.clear()
        assert main([stage, "--config", str(cfg_path), *args]) == EXIT_OK
        assert truth_calls == [2, 3]

    cfg = load_config(cfg_path, overrides)
    ev, speed = cfg.evaluation, cfg.sweep.speed
    models = {name: load_model(cfg.output_dir / "models" / f"{name}.json").predict_batch for name in cli.MODEL_NAMES}
    truth = make_oracle(ev.oracle, cfg.field_params, cfg.merge_params)
    callables = {**models, "ground_truth": truth}
    ref = tmp_path / "ref"
    rows = []
    for formation in ev.formations:
        for altitude in ev.altitudes:
            one = dataclasses.replace(ev, formations=(formation,), altitudes=(altitude,))
            plane = benchmark(models, truth, one, speed)
            rows += plane.rows
            tag = f"{formation.label()}_{altitude_tag(altitude)}"
            positions = np.linspace(-ev.extent / 2.0, ev.extent / 2.0, ev.slice_resolution)
            line = np.stack([np.zeros_like(positions), positions], axis=-1)
            feats = centroid_features(formation, line, altitude, speed)
            columns = {name: fn(feats)[:, 2] for name, fn in callables.items()}
            axis = midpoints(ev.extent, ev.contour_resolution)
            n, e = np.meshgrid(axis, axis, indexing="ij")
            feats = centroid_features(formation, np.stack([n.ravel(), e.ravel()], axis=-1), altitude, speed)
            grids = {name: fn(feats)[:, 2].reshape(len(axis), len(axis)) for name, fn in callables.items()}
            paths = write_report(one, ref, positions, axis, [(columns, grids)])
            assert [path.name for path in paths] == [f"slice_{tag}.csv", *(f"contour_{tag}_{name}.csv" for name in grids)]
    table = EvalReport(rows, {**plane.config, "altitudes": list(ev.altitudes), "oracle": ev.oracle, "seed": cfg.seed})
    table.to_csv(ref / "benchmark.csv")
    table.to_json(ref / "benchmark.json")

    reports = tmp_path / "run" / "reports"
    written = sorted(path.name for path in reports.iterdir())
    assert written == sorted(path.name for path in ref.iterdir())
    assert len(written) == 2 + 6 * (1 + 4)
    for name in written:
        assert (reports / name).read_bytes() == (ref / name).read_bytes(), name


def test_missing_config_is_io_error(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "nope.yaml")]) == EXIT_IO


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("sweep: {legs: -3}\n", encoding="utf-8")
    assert main(["gen", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("pairs", [1000, 20000])
def test_deeply_nested_config_value_is_config_error(tmp_path, capsys, pairs):
    path = tmp_path / "nested.yaml"
    path.write_text("seed: " + "[" * pairs + "]" * pairs + "\n", encoding="utf-8")
    assert main(["gen", "--config", str(path)]) == EXIT_CONFIG
    assert f"{path}: collections nested more than 100 deep" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [25000, 50000])
def test_nesting_that_overflows_libyaml_is_config_error(tmp_path, pairs):
    """Nesting that libyaml's recursive build cannot survive is refused before
    it is built; in a child process, so a crash shows as its exit status."""
    path = tmp_path / "nested.yaml"
    path.write_text("seed: " + "[" * pairs + "]" * pairs + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "downwash.cli", "gen", "--config", str(path)],
        env={**os.environ, "PYTHONPATH": str(Path(downwash.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == EXIT_CONFIG, done.stderr[-2000:]
    assert str(path) in done.stderr and "nested more than 100 deep" in done.stderr


MALFORMED_SCALARS = ["2021-13-45", "2021-02-30", "!!int x", "!!float ", "!!timestamp "]


@pytest.mark.parametrize("scalar", MALFORMED_SCALARS)
def test_scalar_yaml_cannot_build_is_config_error(tmp_path, capsys, scalar):
    path = tmp_path / "scalar.yaml"
    path.write_text(f"seed: {scalar}\n", encoding="utf-8")
    assert main(["gen", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}: " in err and "Traceback" not in err, err
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg), "--set", f"seed={scalar}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"override {f'seed={scalar}'!r}: cannot parse value" in err and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_diverging_training_exits_4(tmp_path, capsys):
    """Overflow in the training step ends in the divergence exit code, naming
    the parameter, under the suite's error::RuntimeWarning filter."""
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--set", "training.learning_rate=1.0e+160"]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert "encoder.W0" in err and "Traceback" not in err, err


def _files(directory) -> dict:
    """Each file's bytes and inode: a rewrite with the same bytes still
    replaces the inode (see ``write_atomic``)."""
    return {path.name: (path.read_bytes(), path.stat().st_ino) for path in directory.iterdir()}


def _cut_k3_by_one_row(out):
    path = out / "datasets" / "leader_follower_k3.csv"
    blob = path.read_bytes()
    path.write_bytes(blob[: blob.rindex(b"\r\n", 0, len(blob) - 2) + 2])


@pytest.mark.parametrize(
    "damage, overrides, code, message",
    [
        (_cut_k3_by_one_row, [], EXIT_FORMAT, "639 data rows, the sidecar says 640"),
        (lambda out: None, ["--set", "training.learning_rate=1.0e+160"], EXIT_DIVERGENCE, "numeric divergence"),
    ],
    ids=["cut_k3_dataset", "divergence"],
)
def test_failed_train_keeps_the_previous_models(tmp_path, capsys, damage, overrides, code, message):
    """``train`` reads every dataset and fits every model before it writes
    the first file, so the grid fitted on the intact ``single_k1`` is not
    rewritten either."""
    run = ["--config", "configs/quick.yaml", "--seed", "11", "--out", str(tmp_path / "run")]
    assert main(["gen", *run]) == EXIT_OK
    assert main(["train", *run]) == EXIT_OK
    models = tmp_path / "run" / "models"
    before = _files(models)
    assert len(before) == 5
    damage(tmp_path / "run")
    capsys.readouterr()
    assert main(["train", *run, *overrides]) == code
    assert message in capsys.readouterr().err
    assert _files(models) == before


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
    blob = path.read_bytes()
    start = blob.rindex(b"\r\n", 0, len(blob) - 2) + 2
    cells = blob[start:-2].split(b",")
    path.write_bytes(blob[:start] + b",".join(cells[:keep_cells] + [cells[keep_cells][:3]]))


@pytest.mark.parametrize("column", ["nb0_pos_d", "meas_f_d"], ids=["inside_state", "inside_wrench"])
def test_truncated_dataset_is_format_error(tmp_path, capsys, column):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "run" / "datasets" / "single_k1.csv"
    keep_cells = _columns(1).index(column)
    _cut_last_row(path, keep_cells)
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert f"{path}: data row 320: {keep_cells + 1} cells for k=1, header has {len(_columns(1))}" in err, err


def test_truncated_model_is_format_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    path = tmp_path / "models" / "naive_linear.json"
    save_model(LinearAggModel.initialised(stream(0)), path)
    path.write_bytes(path.read_bytes()[:200])
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


NESTED_JSON = "[" * 100000 + "]" * 100000  # deeper than the JSON decoder can recurse


def test_deeply_nested_model_file_is_format_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    path = _save_models(tmp_path / "models")["learnt_linear"]
    path.write_text(NESTED_JSON, encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--models-dir", str(path.parent)]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


def test_deeply_nested_dataset_sidecar_is_format_error(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    side = tmp_path / "run" / "datasets" / "single_k1.json"
    side.write_text(NESTED_JSON, encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    assert str(side) in capsys.readouterr().err


def _save_models(models_dir) -> dict:
    """Small valid model files under every name ``eval`` reads; their paths by name."""
    models = {
        "naive_linear": GridLookupModel([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)], np.ones((4, 4, 2, 6))),
        "learnt_linear": LinearAggModel.initialised(stream(0), LinearSettings(hidden=(8,))),
        "learnt_nonlinear": DeepSetModel.initialised(
            stream(1), DeepSetSettings(embed_dim=8, phi_hidden=(8,), decoder_hidden=(8,))
        ),
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


def _version(value):
    """An edit that sets the file's ``version`` to ``value``."""

    def edit(doc, model):
        doc["version"] = value

    return edit


def _fractional_dims(doc, model):
    # int() would read 8.5 as 8, and the payload does hold the values of [6, 8, 6]
    doc["psi"]["dims"] = [6, 8.5, 6]


def _infinite_bounds(doc, model):
    # json reads Infinity; without validation every grid error would be blank
    doc["bounds"][2] = [-float("inf"), float("inf")]


def _string_and_bool_bounds(doc, model):
    # float() would read these as (-1.0, 1.0)
    doc["bounds"][2] = ["-1.0", True]


def _other_set_network(doc, model):
    # a linear model's file relabelled as a deep set holds psi, not phi and big_phi
    doc["kind"] = "deepset"


def _drop(*keys):
    """An edit that deletes the key at the path ``keys``."""

    def edit(doc, model):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return edit


# every key each kind's reader requires: (model name, key path)
REQUIRED_KEYS = [
    ("learnt_linear", ("psi",)),
    ("learnt_linear", ("psi", "dims")),
    ("learnt_linear", ("psi", "flat")),
    ("learnt_nonlinear", ("phi",)),
    ("learnt_nonlinear", ("big_phi",)),
    ("learnt_nonlinear", ("phi", "dims")),
    ("learnt_nonlinear", ("big_phi", "flat")),
    ("naive_linear", ("bounds",)),
    ("naive_linear", ("shape",)),
    ("naive_linear", ("values",)),
]


@pytest.mark.parametrize(
    "name, edit, needle",
    [
        ("learnt_linear", _one_float_short, "bytes"),
        ("learnt_linear", _outside_the_alphabet, ""),
        ("learnt_linear", _version_1, "train"),
        ("learnt_linear", _version(2.0), "train"),
        ("learnt_linear", _version(True), "train"),
        ("learnt_linear", _fractional_dims, "dims"),
        ("naive_linear", _infinite_bounds, "bounds"),
        ("naive_linear", _string_and_bool_bounds, "bounds"),
        ("learnt_linear", _other_set_network, "missing key 'phi'"),
        *((name, _drop(*keys), f"missing key {keys[-1]!r}") for name, keys in REQUIRED_KEYS),
    ],
    ids=[
        "one_float_short",
        "outside_the_alphabet",
        "version_1",
        "version_2.0",
        "version_true",
        "fractional_dims",
        "infinite_bounds",
        "string_and_bool_bounds",
        "other_set_network",
        *(f"{name}_without_{'.'.join(keys)}" for name, keys in REQUIRED_KEYS),
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
    cell lists), then reseal its sidecar's row count and digest (over its
    metadata and the new CSV), so only the content check can object."""
    head, *rows = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
    rows = edit([row.split(",") for row in rows])
    blob = "\r\n".join([head] + [",".join(cells) for cells in rows] + [""]).encode("utf-8")
    path.write_bytes(blob)
    side = path.with_suffix(".json")
    doc = json.loads(side.read_text(encoding="utf-8"))
    doc.update(rows=len(rows), sha256=sealed_digest(doc["metadata"], blob))
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


def _with_k_column(blob):
    """The CSV ``blob`` (K=1) with the int ``k`` cell that format versions 1
    and 2 wrote after the sufferer's state, in the column row and every row."""
    lines = blob.split(b"\r\n")
    at = _columns(1).index("nb0_pos_n")
    for i, line in enumerate(lines[:-1]):
        cells = line.split(b",")
        lines[i] = b",".join(cells[:at] + [b"k" if i == 0 else b"1"] + cells[at:])
    return b"\r\n".join(lines)


def _version_1_dataset(blob, doc):
    """``#`` records of the version and the metadata before the column row,
    and a version-1 sidecar whose sha256 covers only the CSV."""
    records = ["# downwash-dataset version=1\n"]
    records += [f"# {key}={json.dumps(doc['metadata'][key], sort_keys=True)}\n" for key in sorted(doc["metadata"])]
    blob = "".join(records).encode("utf-8") + _with_k_column(blob)
    doc.update(version=1, sha256=hashlib.sha256(blob).hexdigest())
    return blob


def _version_2_dataset(blob, doc):
    """Just the column row and the rows, each with its ``k`` cell, and a
    version-2 sidecar resealed over the metadata and that CSV."""
    blob = _with_k_column(blob)
    doc.update(version=2, sha256=sealed_digest(doc["metadata"], blob))
    return blob


@pytest.mark.parametrize("old", [_version_1_dataset, _version_2_dataset], ids=["version_1", "version_2"])
def test_older_dataset_version_asks_for_gen(tmp_path, capsys, old):
    """A dataset as an older format version wrote it."""
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "run" / "datasets" / "single_k1.csv"
    side = path.with_suffix(".json")
    doc = json.loads(side.read_text(encoding="utf-8"))
    path.write_bytes(old(path.read_bytes(), doc))
    side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert f"{side}: " in err and f"version {doc['version']} is not" in err and "re-run 'downwash gen'" in err, err


def test_dataset_without_sidecar_is_format_error(tmp_path, capsys):
    _train_fails_on_dataset(tmp_path, capsys, lambda path: path.with_suffix(".json").unlink(), "sidecar")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("metadata"), "missing key 'metadata'"),
        (lambda doc: doc.pop("rows"), "missing key 'rows'"),
        (lambda doc: doc.pop("sha256"), "missing key 'sha256'"),
        (lambda doc: doc.update(rows=float(doc["rows"])), "rows 320.0 is not a plain integer"),
        (lambda doc: doc.update(rows=True), "rows True is not a plain integer"),
        (lambda doc: doc.pop("format"), "missing key 'format'"),
        (lambda doc: doc.update(format="downwash-model"), f"format 'downwash-model' version {FORMAT_VERSION} is not"),
        (lambda doc: doc.pop("version"), "missing key 'version'"),
        *(
            (lambda doc, v=v: doc.update(version=v), f"format 'downwash-dataset' version {v!r} is not")
            for v in (99, True, 1.0, 2.0, "1", None)
        ),
    ],
    ids=[
        "without_metadata",
        "without_rows",
        "without_sha256",
        "float_rows",
        "bool_rows",
        "without_format",
        "model_format",
        "without_version",
        *(f"version_{v}" for v in ("99", "true", "1.0", "2.0", "str", "null")),
    ],
)
def test_malformed_dataset_sidecar_is_format_error(tmp_path, capsys, edit, message):
    cfg = _cfg(tmp_path)
    assert main(["gen", "--config", str(cfg)]) == EXIT_OK
    side = tmp_path / "run" / "datasets" / "single_k1.json"
    doc = json.loads(side.read_text(encoding="utf-8"))
    edit(doc)
    side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_FORMAT
    assert f"{side}: {message}" in capsys.readouterr().err


def _first_overflowing_row(seed, rows, sigma_torque):
    """The first data row (from 1) whose torque noise ``sigma_torque * z`` leaves the float range."""
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(sigma_torque * normal_rows(seed, rows, 6)[:, 3:]).all(axis=1)
    assert bad.any()
    return int(np.argmax(bad)) + 1


# MINI_CFG's single_k1: seed 21, 8 legs x 20 samples x 2 altitudes
_OVERFLOW_ROW = _first_overflowing_row(substream_seed(21, "dataset:single_k1"), 320, 1.0e308)

STACK_ONTO_THE_SUFFERER = """
seed: 3
output_dir: {out}
sweep: {{legs: 4, samples_per_leg: 5, altitudes: [0.5]}}
datasets:
  - {{name: single_k1, kind: side_by_side, k: 1}}
  - {{name: stack_k3, kind: stack, k: 3}}
"""


@pytest.mark.parametrize(
    "text, overrides, message, kept",
    [
        # the third stack member (+0.25 m N, +0.5 m D) lands on the sufferer at the
        # leg N = -0.25 m, altitude 0.5 m, in the middle sample (E = 0) of the leg
        (
            STACK_ONTO_THE_SUFFERER,
            [],
            "datasets[1] (stack_k3): data row 8: a neighbour coincides with the sufferer",
            [],
        ),
        (MINI_CFG, ["--set", "noise.sigma_torque=1.0e+308"], f"datasets[0] (single_k1): data row {_OVERFLOW_ROW}: non-finite", []),
    ],
    ids=["neighbour_on_the_sufferer", "noise_overflows"],
)
def test_gen_refuses_a_dataset_that_train_would_refuse(tmp_path, capsys, text, overrides, message, kept):
    """Without the refusal, ``gen`` exits 0 and ``train`` exits 5 on the same rows."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text.format(out=tmp_path / "run"), encoding="utf-8")
    assert main(["gen", "--config", str(cfg), *overrides]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    datasets = tmp_path / "run" / "datasets"
    assert sorted(path.name for path in datasets.glob("*")) == kept  # no CSV, sidecar or temp file of the refused one


def test_refused_gen_keeps_the_previous_datasets(tmp_path, capsys):
    """``gen`` renames its datasets into place only after the last one is
    saved, so the refusal of ``stack_k3`` does not rewrite ``single_k1``
    either, and its staging directory is gone."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(STACK_ONTO_THE_SUFFERER.format(out=tmp_path / "run"), encoding="utf-8")
    assert main(["gen", "--config", str(cfg), "--set", "sweep.altitudes=[1.0]"]) == EXIT_OK
    datasets = tmp_path / "run" / "datasets"
    before = _files(datasets)
    assert sorted(before) == ["single_k1.csv", "single_k1.json", "stack_k3.csv", "stack_k3.json"]
    capsys.readouterr()
    assert main(["gen", "--config", str(cfg), "--set", "sweep.altitudes=[0.5]"]) == EXIT_CONFIG
    assert "datasets[1] (stack_k3): data row 8" in capsys.readouterr().err
    assert _files(datasets) == before


@pytest.mark.parametrize("name", ["../escaped", "sub/name", ""], ids=["parent_dir", "sub_dir", "empty"])
def test_dataset_name_with_a_path_is_config_error(tmp_path, capsys, name):
    """A dataset name is a file name under ``datasets/``: one that climbs
    out of ``gen``'s staging directory, or names a subdirectory or nothing,
    exits 2 in every command before ``gen`` writes or stages any file."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(STACK_ONTO_THE_SUFFERER.format(out=tmp_path / "run"), encoding="utf-8")
    assert main(["gen", "--config", str(cfg), "--set", "sweep.altitudes=[1.0]"]) == EXIT_OK
    datasets = tmp_path / "run" / "datasets"
    before, run_before = _files(datasets), sorted(path.name for path in (tmp_path / "run").iterdir())
    capsys.readouterr()
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("name: stack_k3", f"name: {json.dumps(name)}"), encoding="utf-8")
    for command in ("gen", "train", "eval", "report"):
        assert main([command, "--config", str(cfg), "--set", "sweep.altitudes=[1.0]"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"datasets[1].name: {name!r} is not a file name" in err, err
    assert _files(datasets) == before  # no new file, no .gen-* staging directory
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == run_before


def test_nan_dataset_cell_is_format_error(tmp_path, capsys):
    def nan_cell(rows):
        rows[6][_columns(1).index("gt_t_roll")] = "nan"  # a truth cell of data row 7
        return rows

    _train_fails_on_dataset(tmp_path, capsys, lambda path: _edit_rows(path, nan_cell), "data row 7: non-finite")


def test_neighbour_on_the_sufferer_is_format_error(tmp_path, capsys):
    def coincide(rows):
        nb, suf = _columns(1).index("nb0_pos_n"), _columns(1).index("suf_pos_n")
        rows[2][nb : nb + 3] = rows[2][suf : suf + 3]  # neighbour position := sufferer position in data row 3
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

