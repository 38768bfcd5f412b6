import csv
import io
import json
import os

import numpy as np
import pytest

from downwash.dataset import Dataset, FormatError, _columns, load_dataset, save_dataset, sidecar_path, write_atomic
from downwash.field import DownwashParams, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep


def _small_dataset():
    cfg = SweepConfig(legs=2, samples_per_leg=3, altitudes=(0.3, 1.3))
    return generate_sweep(
        Formation(FormationKind.LEADER_FOLLOWER, 2),
        cfg,
        "merging",
        DownwashParams(),
        noise=NoiseParams(seed=5),
    )


def test_round_trip_is_exact(tmp_path):
    data = _small_dataset()
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    assert sidecar_path(path).exists()
    loaded = load_dataset(path)
    assert loaded.metadata == data.metadata
    assert len(loaded) == len(data)
    for name in ("time", "states", "truth", "measured"):
        assert np.array_equal(getattr(data, name), getattr(loaded, name)), name


def test_round_trip_bytes_stable(tmp_path):
    data = _small_dataset()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_dataset(data, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()


def _csv_writer_body(data):
    """The CSV file as ``csv.writer`` writes it, one float ``repr`` per cell:
    the reference the joined-row encoder of ``save_dataset`` must match."""
    fh = io.StringIO(newline="")
    fh.write("# downwash-dataset version=1\n")
    for key in sorted(data.metadata):
        fh.write(f"# {key}={json.dumps(data.metadata[key], sort_keys=True)}\n")
    writer = csv.writer(fh)
    writer.writerow(_columns(data.k))
    states = data.states.reshape(len(data), -1)
    for t, state, truth, measured in zip(
        data.time.tolist(), states.tolist(), data.truth.tolist(), data.measured.tolist()
    ):
        cells = [repr(v) for v in [t, *state, *truth, *measured]]
        writer.writerow(cells[:8] + [str(data.k)] + cells[8:])
    return fh.getvalue().encode("utf-8")


def test_rows_are_the_bytes_csv_writer_writes(tmp_path):
    data = _small_dataset()
    edge = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -1e-300]
    for name in ("time", "truth", "measured"):
        cells = getattr(data, name).reshape(-1)
        cells[: len(edge)] = edge
    data.states[0, 0] = edge[:6] + [-0.0]
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    body = path.read_bytes()
    assert body == _csv_writer_body(data)
    for cell in (b",-0.0,", b",5e-324,", b",1e+16,", b",1e-05,", b",0.30000000000000004,"):
        assert cell in body


def test_failed_rename_keeps_the_old_dataset_loadable(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    old = _small_dataset()
    save_dataset(old, path)
    new = Dataset(old.time[:2], old.states[:2], old.truth[:2], old.measured[:2] + 1.0, old.metadata)

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_dataset(new, path)
    monkeypatch.undo()
    loaded = load_dataset(path)
    assert np.array_equal(loaded.measured, old.measured)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.json"]


def test_mixed_k_rejected(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(_small_dataset(), path)
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    cells = lines[-2].split(",")
    cells[8] = "1"  # a K=1 row in a K=2 file
    lines[-2] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with pytest.raises(FormatError, match="share one K"):
        load_dataset(path)


def test_header_carries_version_and_metadata(tmp_path):
    data = _small_dataset()
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# downwash-dataset version=1\n")
    assert "# oracle=" in text
    header = [line for line in text.splitlines() if not line.startswith("#")][0]
    cols = header.split(",")
    assert cols[0] == "time"
    assert cols[8] == "k"
    assert cols.count("gt_f_d") == 1 and cols.count("meas_t_yaw") == 1


def test_non_utf8_byte_is_format_error(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(_small_dataset(), path)
    blob = path.read_bytes()
    cut = blob.rindex(b"\n", 0, len(blob) - 1) + 5  # inside the last row's time cell
    path.write_bytes(blob[:cut] + b"\xff" + blob[cut + 1 :])
    with pytest.raises(FormatError, match="data row 12"):
        load_dataset(path)


def test_write_atomic_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_atomic(path, b"old\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_atomic(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
