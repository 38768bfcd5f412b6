import numpy as np
import pytest

from downwash.core import FormationSnapshot, Wrench6
from downwash.dataset import Dataset, FormatError, Record, load_dataset, save_dataset, sidecar_path
from downwash.field import DownwashParams, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep

from conftest import make_state


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
    for a, b in zip(data.records, loaded.records):
        assert a.time == b.time
        assert np.array_equal(a.truth.vec, b.truth.vec)
        assert np.array_equal(a.measured.vec, b.measured.vec)
        for sa, sb in zip(a.snapshot.neighbours, b.snapshot.neighbours):
            assert np.array_equal(sa.position, sb.position)
            assert np.array_equal(sa.velocity, sb.velocity)


def test_round_trip_bytes_stable(tmp_path):
    data = _small_dataset()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_dataset(data, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()


def test_mixed_k_rejected():
    s0 = FormationSnapshot(make_state((0, 0, 0)), (make_state((0, 0, -1)),))
    s1 = FormationSnapshot(make_state((0, 0, 0)), (make_state((0, 0, -1)), make_state((0, 0.5, -1))))
    zero = Wrench6.zero()
    with pytest.raises(ValueError, match="share one K"):
        Dataset(records=[Record(0.0, s0, zero, zero), Record(0.1, s1, zero, zero)], metadata={})


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
