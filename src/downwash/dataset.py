"""Dataset container and on-disk format.

A dataset is a list of (snapshot, ground-truth wrench, noisy measurement)
records sharing one neighbour count K, written as a UTF-8 CSV with
``#``-prefixed header records (format version plus metadata key-values) and
a JSON metadata sidecar of the same basename.  All numbers use Python's
shortest round-trip decimal repr, so a load/save cycle is byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import FormationSnapshot, VehicleState, Wrench6

FORMAT_VERSION = 1

_STATE_FIELDS = ("pos_n", "pos_e", "pos_d", "vel_n", "vel_e", "vel_d", "yaw")
_WRENCH_FIELDS = ("f_n", "f_e", "f_d", "t_pitch", "t_roll", "t_yaw")


class FormatError(ValueError):
    """A dataset or model file whose content does not match its format."""


class Record(NamedTuple):
    time: float
    snapshot: FormationSnapshot
    truth: Wrench6
    measured: Wrench6


@dataclass
class Dataset:
    """Sampled (snapshot, wrench) pairs plus the metadata that generated them."""

    records: list
    metadata: dict

    def __post_init__(self):
        ks = {rec.snapshot.k for rec in self.records}
        if len(ks) > 1:
            raise ValueError(f"all snapshots in a dataset must share one K, got {sorted(ks)}")

    @property
    def k(self) -> int:
        return self.records[0].snapshot.k if self.records else 0

    def __len__(self) -> int:
        return len(self.records)


def _columns(k: int) -> list:
    cols = ["time"]
    cols += [f"suf_{f}" for f in _STATE_FIELDS]
    cols += ["k"]
    for i in range(k):
        cols += [f"nb{i}_{f}" for f in _STATE_FIELDS]
    cols += [f"gt_{f}" for f in _WRENCH_FIELDS]
    cols += [f"meas_{f}" for f in _WRENCH_FIELDS]
    return cols


def _state_cells(state: VehicleState) -> list:
    return [*state.position, *state.velocity, state.yaw]


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def save_dataset(data: Dataset, csv_path) -> None:
    """Write the CSV file and its JSON metadata sidecar."""
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    k = data.k
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# downwash-dataset version={FORMAT_VERSION}\n")
        for key in sorted(data.metadata):
            fh.write(f"# {key}={json.dumps(data.metadata[key], sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(_columns(k))
        for rec in data.records:
            row = [repr(float(rec.time))]
            row += [repr(float(v)) for v in _state_cells(rec.snapshot.sufferer)]
            row.append(str(rec.snapshot.k))
            for nb in rec.snapshot.neighbours:
                row += [repr(float(v)) for v in _state_cells(nb)]
            row += [repr(float(v)) for v in rec.truth.vec]
            row += [repr(float(v)) for v in rec.measured.vec]
            writer.writerow(row)
    with open(sidecar_path(csv_path), "w", encoding="utf-8") as fh:
        json.dump(
            {"format": "downwash-dataset", "version": FORMAT_VERSION, "metadata": data.metadata},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")


def _parse_state(cells: list) -> VehicleState:
    vals = [float(c) for c in cells]
    return VehicleState(position=np.array(vals[0:3]), velocity=np.array(vals[3:6]), yaw=vals[6])


def load_dataset(csv_path) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`."""
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if side.exists():
        with open(side, encoding="utf-8") as fh:
            try:
                metadata = json.load(fh)["metadata"]
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{side}: {exc}") from None
    else:
        metadata = {}
    records = []
    # A bad byte decodes to U+FFFD, which no numeric cell parses, so it is
    # reported by row below instead of escaping as a UnicodeDecodeError.
    with open(csv_path, newline="", encoding="utf-8", errors="replace") as fh:
        rows = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(rows)
        header = next(reader, [])
        if "k" not in header:
            raise FormatError(f"{csv_path}: no column header with a 'k' column")
        k_index = header.index("k")
        k_header = (len(header) - len(_columns(0))) / 7
        for row, cells in enumerate(reader, start=1):
            try:
                k = int(cells[k_index])
                if k != k_header or len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells for k={k}, header has {len(header)}")
                time = float(cells[0])
                sufferer = _parse_state(cells[1:8])
                pos = k_index + 1
                neighbours = []
                for _ in range(k):
                    neighbours.append(_parse_state(cells[pos : pos + 7]))
                    pos += 7
                truth = Wrench6(np.array([float(c) for c in cells[pos : pos + 6]]))
                measured = Wrench6(np.array([float(c) for c in cells[pos + 6 : pos + 12]]))
                snapshot = FormationSnapshot(sufferer, tuple(neighbours))
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{csv_path}: data row {row}: {exc}") from None
            records.append(Record(time, snapshot, truth, measured))
    return Dataset(records=records, metadata=metadata)
