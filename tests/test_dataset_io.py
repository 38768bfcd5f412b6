import csv
import io
import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from downwash.dataset import (
    FORMAT_VERSION,
    Dataset,
    FormatError,
    _columns,
    encode_table,
    load_dataset,
    save_dataset,
    sidecar_path,
    write_atomic,
)
from downwash.field import DownwashParams, NoiseParams
from downwash.formations import Formation, FormationKind, SweepConfig, generate_sweep

from conftest import json_swap_fuzz, json_swaps, sealed_digest


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
    writer = csv.writer(fh)
    writer.writerow(_columns(data.k))
    states = data.states.reshape(len(data), -1)
    for t, state, truth, measured in zip(
        data.time.tolist(), states.tolist(), data.truth.tolist(), data.measured.tolist()
    ):
        writer.writerow([repr(v) for v in [t, *state, *truth, *measured]])
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


def test_distance_beyond_the_float_range_is_no_coincidence(tmp_path):
    """A neighbour's distance that overflows to inf passes the coincidence
    check without a RuntimeWarning (an error under this suite's filter)."""
    data = _small_dataset()
    data.states[0, 1, 2] = 1e200
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    assert _same_arrays(load_dataset(path), data)


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
    at = _columns(2).index("gt_f_n")
    cells[at:at] = cells[at - 7 : at]  # a K=3 row, its last neighbour twice, in a K=2 file
    lines[-2] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with pytest.raises(FormatError, match=re.escape(f"{path}: data row 12: 41 cells for k=2, header has 34")):
        load_dataset(path)


def test_header_carries_version_and_metadata(tmp_path):
    """The CSV starts with its column row; the format, its version and the
    metadata live only in the sidecar."""
    data = _small_dataset()
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    text = path.read_bytes().decode("utf-8")
    cols = text[: text.index("\r\n")].split(",")
    assert cols == _columns(2)
    # the names benchmarks/workloads.py reads, in the column order of the arrays
    assert _columns(1) == [
        "time",
        *("suf_pos_n", "suf_pos_e", "suf_pos_d", "suf_vel_n", "suf_vel_e", "suf_vel_d", "suf_yaw"),
        *("nb0_pos_n", "nb0_pos_e", "nb0_pos_d", "nb0_vel_n", "nb0_vel_e", "nb0_vel_d", "nb0_yaw"),
        *("gt_f_n", "gt_f_e", "gt_f_d", "gt_t_pitch", "gt_t_roll", "gt_t_yaw"),
        *("meas_f_n", "meas_f_e", "meas_f_d", "meas_t_pitch", "meas_t_roll", "meas_t_yaw"),
    ]
    assert "#" not in text and "oracle" not in text
    doc = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    assert doc["format"] == "downwash-dataset"
    assert doc["version"] == FORMAT_VERSION == 3
    assert doc["metadata"] == data.metadata and doc["metadata"]["oracle"] == "merging"


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


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _same_arrays(a, b) -> bool:
    """Bitwise equality, so ``-0.0`` and ``0.0`` count as different."""
    return all(
        np.array_equal(getattr(a, name).view(np.uint64), getattr(b, name).view(np.uint64))
        for name in ("time", "states", "truth", "measured")
    )


# repr's exponent switch points (1e16, 1e-05) and their neighbours, the
# subnormal and largest finite values, and signed zeros
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-05, 0.0001, 9.999999999999999e-06,
          2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]
_values = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


def _column(n, values):
    return st.one_of(
        values.map(lambda v: [v] * n),
        st.lists(values, min_size=n, max_size=n, unique_by=repr),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n),
        st.lists(values, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        ),
    )


@st.composite
def _tables(draw):
    """A Dataset whose columns are each all-equal, all-distinct, signed zeros
    or repeats of a few values.  The sufferer's ``pos_d`` is <= 0 and each
    neighbour's >= 1, so no neighbour coincides with the sufferer."""
    n, k = draw(st.integers(1, 20)), draw(st.integers(0, 2))
    columns = [draw(_column(n, _values)) for _ in range(1 + 7 * (k + 1) + 12)]
    columns[3] = [-abs(v) for v in draw(_column(n, _values))]
    for i in range(k):
        columns[10 + 7 * i] = [1.0 + abs(v) for v in draw(_column(n, _values))]
    table = np.array(columns).T.reshape(n, -1)
    states = table[:, 1 : 8 + 7 * k].reshape(n, k + 1, 7)
    wrenches = table[:, 8 + 7 * k :]
    return Dataset(table[:, 0].copy(), states.copy(), wrenches[:, :6].copy(), wrenches[:, 6:].copy(), {"name": "t"})


_report_values = st.one_of(_values, st.sampled_from([float("nan"), float("inf"), -float("inf")]))
_int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _report_columns(draw):
    """Columns that reports and loss histories hand the encoder but a dataset
    never holds: NaN and ±inf cells, int64 columns, no rows, and strided
    views such as a wrench batch's ``[:, 2]``."""
    n = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            column = np.array(draw(_column(n, _int64s)), dtype=np.int64)
        else:
            column = np.array(draw(_column(n, _report_values)), dtype=np.float64)
        if draw(st.booleans()):
            column = np.stack([np.zeros_like(column), column, column], axis=1)[:, 1]
        columns.append(column)
    return columns


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@FUZZ
@given(_tables(), _report_columns())
def test_encoder_writes_the_csv_writer_bytes_for_any_table(scratch, data, columns):
    header = [f"c{j}" for j in range(len(columns))]
    reference = io.StringIO(newline="")
    csv.writer(reference).writerows([header, *([repr(v) for v in row] for row in zip(*(c.tolist() for c in columns)))])
    assert encode_table(header, columns) == reference.getvalue().encode("utf-8")

    path, again = scratch / "a.csv", scratch / "b.csv"
    save_dataset(data, path)
    assert path.read_bytes() == _csv_writer_body(data)
    loaded = load_dataset(path)
    assert _same_arrays(loaded, data)
    save_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert sidecar_path(again).read_bytes() == sidecar_path(path).read_bytes()


def test_encoder_keeps_dtypes_and_signed_zeros_apart():
    # the int64 column holds the bit patterns of the float64 column's 0.0, 1.0 and -0.0
    ints = np.array([0, 4607182418800017408, -9223372036854775808], dtype=np.int64)
    floats = np.array([0.0, 1.0, -0.0])
    assert ints.view(np.float64).tobytes() == floats.tobytes()
    assert encode_table(["i", "f"], [ints, floats]) == (
        b"i,f\r\n0,0.0\r\n4607182418800017408,1.0\r\n-9223372036854775808,-0.0\r\n"
    )
    # -0.0 and 0.0 in different columns of one dtype stay distinct
    assert encode_table(["a", "b"], [np.array([-0.0, 0.0]), np.array([0.0, -0.0])]) == b"a,b\r\n-0.0,0.0\r\n0.0,-0.0\r\n"
    # a loss history of `training.epochs: 0` is its header line alone
    empty = encode_table(["epoch", "loss"], [np.zeros(0, dtype=np.int64), np.zeros(0)])
    assert empty == b"epoch,loss\r\n"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small dataset's CSV and sidecar bytes, and the dataset they load as."""
    path = tmp_path_factory.mktemp("saved") / "d.csv"
    save_dataset(_small_dataset(), path)
    return path.read_bytes(), sidecar_path(path).read_bytes(), load_dataset(path)


def _loads_the_same_or_refuses(scratch, blob, side, original) -> None:
    """Write a (damaged) CSV and sidecar; loading them must give the original
    arrays or a FormatError naming one of the two files, nothing else."""
    path = scratch / "fuzz.csv"
    path.write_bytes(blob)
    sidecar_path(path).write_bytes(side)
    try:
        loaded = load_dataset(path)
    except FormatError as exc:
        assert str(path) in str(exc) or str(sidecar_path(path)) in str(exc), str(exc)
    else:
        assert _same_arrays(loaded, original)


def _flip(blob, at, mask):
    at %= len(blob)
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]


def _nth(blob, sep, n):
    """The offset of occurrence ``n`` (modulo their count) of ``sep`` in
    ``blob``, whose first line is the column row."""
    starts = [i for i in range(len(blob)) if blob.startswith(sep, i)]
    return starts[n % len(starts)]


def _lf_endings(blob, n):
    """The ``\\r\\n`` ending row ``n`` (modulo the rows, the column row and
    the last row included) or, for n < 0, every ``\\r\\n`` made a bare
    ``\\n``."""
    if n < 0:
        return blob.replace(b"\r\n", b"\n")
    at = _nth(blob, b"\r\n", n)
    return blob[:at] + blob[at + 1 :]


def _quoted_cell(blob, n):
    """The cell after comma ``n`` wrapped in double quotes."""
    at = _nth(blob, b",", n) + 1
    end = min(i for i in (blob.find(b",", at), blob.find(b"\r", at)) if i >= 0)
    return blob[:at] + b'"' + blob[at:end] + b'"' + blob[end:]


def _comma(blob, n, extra):
    """Comma ``n`` doubled (``extra``) or removed."""
    at = _nth(blob, b",", n)
    return blob[:at] + (b",," if extra else b"") + blob[at + 1 :]


def _spaced_cell(blob, n):
    """A space before the cell after comma ``n``: ``float`` reads `` 1.5``."""
    at = _nth(blob, b",", n) + 1
    return blob[:at] + b" " + blob[at:]


def _underscored(blob, n):
    """An ``_`` between the two digits of occurrence ``n`` of a digit pair:
    ``float`` reads ``1_0`` as 10.0."""
    starts = [m.start() + 1 for m in re.finditer(rb"\d(?=\d)", blob)]
    at = starts[n % len(starts)]
    return blob[:at] + b"_" + blob[at:]


_truncations = st.integers(0, 10**6).map(lambda at: lambda blob: blob[: at % (len(blob) + 1)])
_flips = st.tuples(st.integers(0, 10**6), st.integers(1, 255)).map(lambda a: lambda blob: _flip(blob, *a))
_csv_syntax = st.one_of(
    st.integers(-1, 10**3).map(lambda n: lambda blob: _lf_endings(blob, n)),
    st.integers(0, 10**3).map(lambda n: lambda blob: _quoted_cell(blob, n)),
    st.tuples(st.integers(0, 10**3), st.booleans()).map(lambda a: lambda blob: _comma(blob, *a)),
    st.integers(0, 10**3).map(lambda n: lambda blob: _spaced_cell(blob, n)),
    st.integers(0, 10**3).map(lambda n: lambda blob: _underscored(blob, n)),
)


@FUZZ
@given(st.one_of(_truncations, _flips, _csv_syntax))
def test_damaged_dataset_loads_the_same_or_is_format_error(scratch, saved, damage):
    blob, side, original = saved
    _loads_the_same_or_refuses(scratch, damage(blob), side, original)


@FUZZ
@given(st.one_of(_truncations, _flips))
def test_damaged_sidecar_loads_the_same_or_is_format_error(scratch, saved, damage):
    blob, side, original = saved
    _loads_the_same_or_refuses(scratch, blob, damage(side), original)


@json_swap_fuzz
def test_sidecar_with_a_value_swapped_loads_the_same_or_is_format_error(scratch, saved, value):
    """At every key path of the sidecar, ``value`` in place of the original
    or the key deleted."""
    blob, side, original = saved
    for _, doc in json_swaps(json.loads(side), value):
        _loads_the_same_or_refuses(scratch, blob, json.dumps(doc).encode("utf-8"), original)


@FUZZ
@given(_csv_syntax)
@example(lambda blob: blob[:-2] + b"\n")  # the last row ended by a bare "\n"
@example(lambda blob: _spaced_cell(blob, 40))  # " 1.5"
@example(lambda blob: _underscored(blob, 0))  # "1_0"
def test_only_csv_reader_syntax_is_format_error_under_a_matching_digest(scratch, saved, damage):
    """Bare-LF row ends (the last row's included), quoted cells, a comma too
    many or too few, a space before a cell and an ``_`` between digits are
    refused by the reader itself, not only by the digest."""
    blob, side, _ = saved
    damaged = damage(blob)
    doc = json.loads(side)
    doc["sha256"] = sealed_digest(doc["metadata"], damaged)
    path = scratch / "resealed.csv"
    path.write_bytes(damaged)
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_dataset(path)


def test_sidecar_digest_covers_the_metadata(scratch, saved):
    """An edited ``metadata`` without a resealed ``sha256`` is refused; with
    the digest resealed over the new metadata it loads."""
    blob, side, original = saved
    doc = json.loads(side)
    doc["metadata"]["seed"] += 1
    path = scratch / "metadata.csv"
    path.write_bytes(blob)
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: content does not match the sha256"):
        load_dataset(path)
    doc["sha256"] = sealed_digest(doc["metadata"], blob)
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_dataset(path)
    assert _same_arrays(loaded, original) and loaded.metadata == doc["metadata"]


def _outcome(path):
    """The dataset ``load_dataset`` reads from ``path``, or its refusal's text."""
    try:
        return load_dataset(path)
    except FormatError as exc:
        return str(exc)


def _cell(blob, n, token):
    """The cell after comma ``n`` replaced by ``token``."""
    at = _nth(blob, b",", n) + 1
    end = min(i for i in (blob.find(b",", at), blob.find(b"\r", at)) if i >= 0)
    return blob[:at] + token + blob[end:]


def _line(blob, n, text):
    """``text`` and a ``\\r\\n`` inserted after line ``n`` (modulo the
    lines; line 0 is the column row)."""
    at = _nth(blob, b"\r\n", n) + 2
    return blob[:at] + text + b"\r\n" + blob[at:]


# tokens on which numpy's parser and ``float`` might part, and random text
# over the bytes of a data row
_TOKENS = [b"1_0", b" 1.5", b"1.5 ", b"1e400", b"-1e400", b"5e-324", b"-0.0", b"+1.5", b"1.", b".5", b"", b"1e",
           b"--1", b"nan", b"inf", b"1e+5", b"1E5", b"0x1", b"1\n", b"1\r", b"\t1"]
_cells = st.tuples(
    st.integers(0, 10**3),
    st.one_of(st.sampled_from(_TOKENS), st.text("0123456789.e+-", max_size=8).map(str.encode)),
).map(lambda a: lambda blob: _cell(blob, *a))


@FUZZ
@given(st.one_of(_truncations, _flips, _csv_syntax, _cells))
@example(lambda blob: _cell(blob, 3, b"1_0"))
@example(lambda blob: _cell(blob, 3, b" 1.5"))
@example(lambda blob: _cell(blob, 3, b"1.5 "))
@example(lambda blob: _cell(blob, 3, b"1e400"))
@example(lambda blob: _cell(blob, 3, b"-1e400"))
@example(lambda blob: _cell(blob, 3, b"5e-324"))
@example(lambda blob: _cell(blob, 3, b"-0.0"))
@example(lambda blob: _cell(blob, 3, b"+1.5"))
@example(lambda blob: _cell(blob, 3, b"1."))
@example(lambda blob: _cell(blob, 3, b".5"))
@example(lambda blob: _cell(blob, 3, b""))
@example(lambda blob: _cell(blob, 3, b"1e"))
@example(lambda blob: _cell(blob, 3, b"--1"))
@example(lambda blob: _cell(blob, 3, b"nan"))
@example(lambda blob: _cell(blob, 3, b"inf"))
@example(lambda blob: _line(blob, 4, b""))  # a blank line
@example(lambda blob: _line(blob, 4, b"#" + blob.split(b"\r\n")[1]))  # "#" and a copy of data row 1
@example(lambda blob: _lf_endings(blob, 4))  # a bare "\n" ends data row 4
@example(lambda blob: _cell(blob, 3, b"1\r5"))  # a lone "\r"
# a bare "\n" inside one "\r\n" line and a blank line: numpy reads as many
# full-width rows as the "\r\n" lines, but the rows are not the lines
@example(lambda blob: _line(_lf_endings(blob, 4), 7, b""))
@example(lambda blob: blob)
def test_numpy_reader_and_row_reader_agree_on_any_table(scratch, saved, damage):
    """Damaged datasets, their digest resealed so the reader itself decides,
    load to bitwise the same arrays or the same FormatError text with numpy's
    reader and with the row-by-row reader alone, which ``np.loadtxt``
    raising (as it does on text it refuses) leaves."""
    blob, side, _ = saved
    damaged = damage(blob)
    doc = json.loads(side)
    doc["sha256"] = sealed_digest(doc["metadata"], damaged)
    path = scratch / "parity.csv"
    path.write_bytes(damaged)
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    fast = _outcome(path)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        slow = _outcome(path)
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
    else:
        assert _same_arrays(fast, slow) and fast.metadata == slow.metadata


def test_a_table_longer_than_a_loadtxt_chunk_reads_alike(tmp_path):
    """``np.loadtxt`` reads its input 50 000 rows at a time; a 50 001-row
    table, its cells drawn from 4096 values spread over the float range,
    loads bitwise alike on both readers, and numpy's reader is the one that
    read it."""
    rng = np.random.default_rng(28)
    n, width = 50_001, len(_columns(1))
    pool = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 300, 4096)
    table = pool[rng.integers(0, len(pool), (n, width))]
    table[:, 3] = -np.abs(table[:, 3])  # the sufferer's pos_d <= 0 and the neighbour's >= 1
    table[:, 10] = 1.0 + np.abs(table[:, 10]) % 1e300
    table[:5, 0] = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2]
    data = Dataset(table[:, 0], table[:, 1:15].reshape(n, 2, 7), table[:, 15:21], table[:, 21:], {"name": "long"})
    path = tmp_path / "long.csv"
    save_dataset(data, path)
    real, shapes = np.loadtxt, []

    def spy(*args, **kwargs):
        values = real(*args, **kwargs)
        shapes.append(values.shape)
        return values

    with mock.patch.object(np, "loadtxt", spy):
        fast = load_dataset(path)
    assert shapes == [(n, width)]
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        slow = load_dataset(path)
    assert _same_arrays(fast, data) and _same_arrays(slow, data)
