"""Dataset container, on-disk format and the write path of every output.

This module owns the encoding and the write of every output file: datasets,
sidecars, model files, loss histories and reports are encoded by
:func:`encode_table`, :func:`write_csv` or :func:`write_json` and replaced
whole by :func:`write_atomic`, so no reader sees a partial file.

A dataset holds n samples sharing one neighbour count K as arrays: ``time``
(n,), ``states`` (n, K+1, 7) with the sufferer first (see
:mod:`downwash.core`), the ground-truth wrenches ``truth`` (n, 6) and the
noisy measurements ``measured`` (n, 6).  It is written as a UTF-8 CSV of
the column row and the (n, 20 + 7K) table of those arrays side by side, so
the column row alone states K, and a JSON sidecar of the same basename that
alone holds the format, its version, the metadata, the row count and a
sha256 over the metadata and the CSV.  Loading checks each, so
a file cut at a row boundary, a CSV or metadata edited after it was
written, or an older format is refused.  All numbers use Python's shortest
round-trip decimal repr, so a load/save cycle is byte-identical.

Every table of numbers (a dataset's rows, the slice and contour reports,
the loss histories) is encoded whole by :func:`encode_table`: each column's
distinct values go through ``repr`` once, the cells are joined by ``","``
and the lines by ``"\\r\\n"``, and the text is still exactly what
``csv.writer`` writes with ``repr`` cells.
:func:`load_dataset` reads the rows with one ``np.loadtxt`` call when every
line is a non-empty row of the bytes ``save_dataset`` writes, and otherwise
splits the bytes on ``\\r\\n`` and each row on commas and parses each cell
with ``float``; both give the same doubles, and neither runs ``csv.reader``.
A row byte that ``save_dataset`` never writes is refused.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MIN_SEPARATION, WRENCH_AXES, separations

FORMAT_VERSION = 3

_STATE_FIELDS = ("pos_n", "pos_e", "pos_d", "vel_n", "vel_e", "vel_d", "yaw")
_ROW_BYTES = b"0123456789.e+-,"  # every byte of a data row but its "\r\n"


class FormatError(ValueError):
    """A dataset or model file whose content does not match its format."""


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: a reader sees the old file or the whole new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows) -> None:
    """Write rows of string cells as ``csv.writer`` encodes them, in UTF-8,
    through :func:`write_atomic`."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows(rows)
    write_atomic(path, fh.getvalue().encode("utf-8"))


def encode_table(header, columns) -> bytes:
    """The UTF-8 CSV text of a table of numbers: the ``header`` names, then
    per row its cells, each line joined by commas and ended by ``\\r\\n``.

    ``columns`` are equal-length 1-D float64 or int64 arrays, one per name;
    a cell is the ``repr`` of its value, so an int64 cell (a loss history's
    ``epoch``) reads ``3``.  Each column's distinct bit patterns go through
    ``repr`` once (``-0.0`` and ``0.0`` stay apart), the texts fill one
    object table, and its rows are joined by ``","`` and the lines by
    ``"\\r\\n"``.  Header names must be non-empty and need no quoting.  A
    number's ``repr`` never needs it, so the text is the bytes
    ``csv.writer`` writes for these rows."""
    if any(not name or set(name) & set(',"\r\n') for name in header):
        raise ValueError(f"header {header!r} holds a name that csv.writer would quote")
    cells = np.empty((len(columns), len(columns[0])), dtype=object)
    for j, column in enumerate(columns):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        cells[j] = np.array(list(map(repr, bits.view(column.dtype).tolist())), dtype=object)[inverse]
    return "\r\n".join([",".join(header), *map(",".join, cells.T.tolist()), ""]).encode("utf-8")


def write_json(path, doc, indent=None) -> None:
    """Write ``doc`` as sorted-key JSON and a newline through :func:`write_atomic`;
    model files are compact, sidecars and error tables use ``indent=2``."""
    write_atomic(path, (json.dumps(doc, indent=indent, sort_keys=True) + "\n").encode("utf-8"))


@dataclass
class Dataset:
    """Sampled states and wrenches plus the metadata that generated them."""

    time: np.ndarray      # (n,)
    states: np.ndarray    # (n, K+1, 7): sufferer, then neighbours
    truth: np.ndarray     # (n, 6)
    measured: np.ndarray  # (n, 6)
    metadata: dict

    def __post_init__(self):
        n = len(self.time)
        if self.states.ndim != 3 or len(self.states) != n or self.states.shape[1] < 1 or self.states.shape[2] != 7:
            raise ValueError(f"states must have shape ({n}, K+1, 7), got {self.states.shape}")
        if self.truth.shape != (n, 6) or self.measured.shape != (n, 6):
            raise ValueError(f"truth and measured must have shape ({n}, 6)")

    @property
    def k(self) -> int:
        return self.states.shape[1] - 1

    def __len__(self) -> int:
        return len(self.time)


def _columns(k: int) -> list:
    cols = ["time"]
    cols += [f"suf_{f}" for f in _STATE_FIELDS]
    for i in range(k):
        cols += [f"nb{i}_{f}" for f in _STATE_FIELDS]
    cols += [f"gt_{f}" for f in WRENCH_AXES]
    cols += [f"meas_{f}" for f in WRENCH_AXES]
    return cols


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _check_rows(table: np.ndarray, states: np.ndarray) -> None:
    """A ValueError naming the first data row (from 1) of ``table`` that holds
    a non-finite value, else the first whose ``states`` put a neighbour
    within ``MIN_SEPARATION`` of the sufferer."""
    bad, fault = ~np.isfinite(table).all(axis=1), "non-finite value"
    if not bad.any():
        with np.errstate(over="ignore"):  # a distance beyond the float range is no coincidence
            bad = (separations(states) <= MIN_SEPARATION).any(axis=1)
        fault = "a neighbour coincides with the sufferer"
    if bad.any():
        raise ValueError(f"data row {int(np.argmax(bad)) + 1}: {fault}")


def _digest(metadata, blob: bytes) -> str:
    """The sidecar's sha256: ``metadata`` as sorted-key compact JSON, ``\\n``, the CSV ``blob``."""
    digest = hashlib.sha256(json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n")
    digest.update(blob)
    return digest.hexdigest()


def save_dataset(data: Dataset, csv_path) -> None:
    """Write the CSV file through :func:`write_atomic`, then its JSON sidecar
    through :func:`write_json`.  A dataset that :func:`load_dataset` would
    refuse for its values raises ValueError before anything is written.

    The CSV is one :func:`encode_table` of the float64 columns ``time``,
    the flattened ``states`` (sufferer, then each neighbour), ``truth`` and
    ``measured``; the column row's width is the only place K is written.
    The sidecar holds ``format``, ``version``, ``metadata``, ``rows`` and
    the ``sha256`` of :func:`_digest`.
    """
    n = len(data)
    table = np.concatenate([data.time[:, None], data.states.reshape(n, -1), data.truth, data.measured], axis=1)
    _check_rows(table, data.states)
    body = encode_table(_columns(data.k), list(table.T))
    doc = {"format": "downwash-dataset", "version": FORMAT_VERSION, "metadata": data.metadata, "rows": n}
    doc["sha256"] = _digest(data.metadata, body)
    write_atomic(csv_path, body)
    write_json(sidecar_path(csv_path), doc, indent=2)


def load_dataset(csv_path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    The first line is the column row, whose width gives K; the rest is the
    table, and the arrays are slices of it.  When every line between
    ``\\r\\n`` ends is non-empty and holds only row bytes, one
    ``np.loadtxt`` call reads the table (numpy parses such a cell as
    ``float`` does), and its array is kept if it has one row per line and
    the column row's width.  Other text goes to a loop that splits on
    ``\\r\\n`` and commas and parses each cell with ``float``, which names
    the first row that does not parse.  A row byte other than a digit,
    ``.``, ``e``, ``+``, ``-`` or ``,`` (a bare ``\\n``, a quote, a space,
    ``_``, non-UTF-8) is refused.

    Raises :class:`FormatError` naming the file (and the data row, where
    there is one) for a missing or broken sidecar (a missing key, another
    ``format``, a ``version`` other than the plain int :data:`FORMAT_VERSION`,
    ``rows`` not a plain int, JSON nested too deep to parse or digest), a
    row that does not parse or whose width is not the column row's (as a
    row of another K is), a non-finite cell, a neighbour coinciding with
    the sufferer, a stray byte, no data rows, or a row count or digest
    (over the metadata and the CSV) that disagrees with the sidecar.
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not side.exists():
        raise FormatError(f"{csv_path}: sidecar {side} is missing")
    blob = csv_path.read_bytes()
    with open(side, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if (doc["format"], type(doc["version"]), doc["version"]) != ("downwash-dataset", int, FORMAT_VERSION):
                raise ValueError(f"format {doc['format']!r} version {doc['version']!r} is not 'downwash-dataset'"
                                 f" version {FORMAT_VERSION}; re-run 'downwash gen' to rewrite the datasets")
            metadata, rows = doc["metadata"], doc["rows"]
            if type(rows) is not int:
                raise ValueError(f"rows {rows!r} is not a plain integer")
            sealed = _digest(metadata, blob) == doc["sha256"]
        except KeyError as exc:
            raise FormatError(f"{side}: missing key {exc}") from None
        except (RecursionError, TypeError, ValueError) as exc:
            raise FormatError(f"{side}: {exc}") from None
    head, _, body = blob.partition(b"\r\n")
    lines = body.split(b"\r\n")
    if lines[-1:] == [b""]:  # the "\r\n" that ends the last row
        lines.pop()
    width = head.count(b",") + 1
    k = max(width - len(_columns(0)), 0) // 7
    if head != ",".join(_columns(k)).encode("utf-8"):
        raise FormatError(f"{csv_path}: the column header does not match the dataset format")
    stray = body.translate(None, _ROW_BYTES).replace(b"\r\n", b"")  # float takes " 1", "1_0" and "1\n"
    values = None
    if lines and all(lines) and not stray:  # numpy reads these lines as the rows, each cell as float does
        try:
            values = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2, comments=None)
        except ValueError:
            pass
    if values is None or values.shape != (len(lines), width):
        values = []
        for row, line in enumerate(lines, start=1):
            cells = line.split(b",")
            try:
                if len(cells) != width:
                    raise ValueError(f"{len(cells)} cells for k={k}, header has {width}")
                values += map(float, cells)
            except ValueError as exc:
                raise FormatError(f"{csv_path}: data row {row}: {exc}") from None
        values = np.array(values).reshape(-1, width)
    states = values[:, 1:-12].reshape(-1, k + 1, 7)
    try:
        _check_rows(values, states)
    except ValueError as exc:
        raise FormatError(f"{csv_path}: {exc}") from None
    if stray:
        stray = [line.translate(None, _ROW_BYTES) for line in lines]
        row = next(row for row, left in enumerate(stray, start=1) if left)
        raise FormatError(f"{csv_path}: data row {row}: byte {stray[row - 1][:1]!r} is no part of a number")
    if not values.size:
        raise FormatError(f"{csv_path}: no data rows")
    if len(values) != rows:
        raise FormatError(f"{csv_path}: {len(values)} data rows, the sidecar says {rows}")
    if not sealed:
        raise FormatError(f"{csv_path}: content does not match the sha256 in {side}")
    return Dataset(values[:, 0], states, values[:, -12:-6], values[:, -6:], metadata)
