"""Metrics and report generation.

The headline metric integrates |prediction - truth| per wrench axis over a
lateral plane of formation-centroid positions at fixed relative altitude
(midpoint rule), normalized by the integral of |truth| so the result is a
dimensionless relative error per axis.  Axes whose truth integrates to zero
are reported as not-applicable (NaN) instead of dividing by zero.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import WRENCH_AXES
from .formations import Formation, snapshot_at

AXIS_LABELS = ("N", "E", "D", "Pitch", "Roll", "Yaw")


def _midpoints(extent: float, resolution: int) -> np.ndarray:
    return -extent / 2.0 + (np.arange(resolution) + 0.5) * (extent / resolution)


def integrated_plane_error(
    predictor,
    truth,
    formation: Formation,
    altitude: float,
    extent: float = 2.0,
    resolution: int = 64,
    speed: float = 0.5,
) -> np.ndarray:
    """Normalized per-axis error integrated over the lateral plane.

    ``predictor`` and ``truth`` are snapshot -> Wrench6 callables.  Returns a
    6-vector; NaN marks axes whose ground truth is identically zero on the
    plane (not-applicable).
    """
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    axis = _midpoints(extent, resolution)
    err = np.zeros(6)
    ref = np.zeros(6)
    for n in axis:
        for e in axis:
            snap = snapshot_at(formation, float(n), float(e), altitude, speed)
            t = truth(snap).vec
            p = predictor(snap).vec
            err += np.abs(p - t)
            ref += np.abs(t)
    cell_area = (extent / resolution) ** 2
    err *= cell_area
    ref *= cell_area
    out = np.full(6, np.nan)
    nonzero = ref > 0.0
    out[nonzero] = err[nonzero] / ref[nonzero]
    return out


@dataclass
class SliceProfile:
    """1-D transect of D-axis forces through the formation centroid."""

    axis: str                      # "n" or "e"
    positions: np.ndarray
    columns: dict                  # name -> D-force array, truth last

    def to_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{self.axis}_position"] + list(self.columns))
            for i, pos in enumerate(self.positions):
                writer.writerow(
                    [repr(float(pos))] + [repr(float(col[i])) for col in self.columns.values()]
                )


def slice_profile(
    predictors: dict,
    truth,
    formation: Formation,
    altitude: float,
    axis: str = "e",
    extent: float = 2.0,
    resolution: int = 201,
    speed: float = 0.5,
) -> SliceProfile:
    """D-axis forces along one lateral axis through the formation centroid.

    Emits one aligned column per named predictor plus ``ground_truth``.
    """
    if axis not in ("n", "e"):
        raise ValueError(f"axis must be 'n' or 'e', got {axis!r}")
    positions = np.linspace(-extent / 2.0, extent / 2.0, resolution)
    columns = {name: np.zeros(resolution) for name in predictors}
    columns["ground_truth"] = np.zeros(resolution)
    for i, pos in enumerate(positions):
        n, e = (float(pos), 0.0) if axis == "n" else (0.0, float(pos))
        snap = snapshot_at(formation, n, e, altitude, speed)
        for name, predictor in predictors.items():
            columns[name][i] = predictor(snap).f_d
        columns["ground_truth"][i] = truth(snap).f_d
    return SliceProfile(axis=axis, positions=positions, columns=columns)


def count_peaks(values: np.ndarray, min_prominence_frac: float = 0.2) -> int:
    """Number of local maxima with prominence above a fraction of the range."""
    from scipy import signal  # imported here: it pulls in scipy.stats, which no CLI stage needs

    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    if spread <= 0.0:
        return 0
    peaks, _ = signal.find_peaks(values, prominence=min_prominence_frac * spread)
    return int(len(peaks))


def contour_grid(
    predictor,
    formation: Formation,
    altitude: float,
    extent: float = 2.0,
    resolution: int = 64,
    speed: float = 0.5,
):
    """D-force on the midpoint lateral grid (same sampling as the error metric).

    Returns (n_axis, e_axis, values) with values[i, j] at (n_axis[i], e_axis[j]).
    """
    axis = _midpoints(extent, resolution)
    values = np.zeros((resolution, resolution))
    for i, n in enumerate(axis):
        for j, e in enumerate(axis):
            snap = snapshot_at(formation, float(n), float(e), altitude, speed)
            values[i, j] = predictor(snap).f_d
    return axis, axis.copy(), values


def contour_to_csv(n_axis, e_axis, values, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "e", "f_d"])
        for i, n in enumerate(n_axis):
            for j, e in enumerate(e_axis):
                writer.writerow([repr(float(n)), repr(float(e)), repr(float(values[i, j]))])


@dataclass
class EvalReport:
    """Per-(formation, altitude, model) integrated errors with winner marks."""

    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def add(self, formation: Formation, altitude: float, model_name: str, errors: np.ndarray):
        self.rows.append(
            {
                "formation": formation.label(),
                "k": formation.k,
                "altitude": float(altitude),
                "model": model_name,
                "errors": [float(v) for v in errors],
            }
        )

    def mark_winners(self) -> None:
        """Flag the lowest-error model per (formation, altitude, axis)."""
        groups = {}
        for row in self.rows:
            groups.setdefault((row["formation"], row["altitude"]), []).append(row)
        for rows in groups.values():
            for row in rows:
                row["wins"] = [False] * 6
            for ax in range(6):
                cands = [r for r in rows if not math.isnan(r["errors"][ax])]
                if not cands:
                    continue
                best = min(cands, key=lambda r: r["errors"][ax])
                best["wins"][ax] = True

    def errors_for(self, formation_label: str, model_name: str, altitude: float) -> np.ndarray:
        for row in self.rows:
            if (
                row["formation"] == formation_label
                and row["model"] == model_name
                and row["altitude"] == altitude
            ):
                return np.array(row["errors"])
        raise KeyError(f"no row for {formation_label}/{model_name}@{altitude}")

    def to_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["formation", "k", "altitude", "model"]
            header += [f"err_{name}" for name in WRENCH_AXES]
            header += [f"win_{name}" for name in WRENCH_AXES]
            writer.writerow(header)
            for row in self.rows:
                cells = [row["formation"], str(row["k"]), repr(row["altitude"]), row["model"]]
                cells += ["" if math.isnan(v) else repr(v) for v in row["errors"]]
                cells += [str(int(w)) for w in row.get("wins", [False] * 6)]
                writer.writerow(cells)

    def to_json(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "config": self.config,
            "axes": list(AXIS_LABELS),
            "rows": [
                {**row, "errors": [None if math.isnan(v) else v for v in row["errors"]]}
                for row in self.rows
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def benchmark(
    models: dict,
    formations: list,
    truth,
    altitudes,
    extent: float = 2.0,
    resolution: int = 64,
    speed: float = 0.5,
) -> EvalReport:
    """Cross-product evaluation of all models over formations and altitudes."""
    report = EvalReport(
        config={
            "extent": extent,
            "resolution": resolution,
            "speed": speed,
            "altitudes": [float(a) for a in altitudes],
        }
    )
    for formation in formations:
        for altitude in altitudes:
            for name, predictor in models.items():
                errors = integrated_plane_error(
                    predictor, truth, formation, altitude, extent, resolution, speed
                )
                report.add(formation, altitude, name, errors)
    report.mark_winners()
    return report
