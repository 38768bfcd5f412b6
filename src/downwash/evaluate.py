"""Metrics and report generation.

The headline metric integrates |prediction - truth| per wrench axis over a
lateral plane of formation-centroid positions at fixed relative altitude
(midpoint rule), normalized by the integral of |truth| so the result is a
dimensionless relative error per axis.  Axes whose truth integrates to zero
are reported as not-applicable (NaN) instead of dividing by zero.

Predictors and the truth are *batch callables*: each maps a feature batch
(m, K, 6) to a wrench batch (m, 6), as ``model.predict_batch`` and the
oracle instances of :mod:`downwash.field` do.  Every plane, slice and
contour is one batch built by :func:`downwash.formations.centroid_features`
and passed to each callable once.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import WRENCH_AXES
from .formations import Formation, centroid_features

AXIS_LABELS = ("N", "E", "D", "Pitch", "Roll", "Yaw")


def _midpoints(extent: float, resolution: int) -> np.ndarray:
    return -extent / 2.0 + (np.arange(resolution) + 0.5) * (extent / resolution)


def _plane(formation: Formation, altitude: float, extent: float, resolution: int, speed: float):
    """The midpoint lateral grid axis and its feature batch (resolution**2, K, 6), n-major."""
    axis = _midpoints(extent, resolution)
    n, e = np.meshgrid(axis, axis, indexing="ij")
    centroids = np.stack([n.ravel(), e.ravel()], axis=-1)
    return axis, centroid_features(formation, centroids, altitude, speed)


def _error_plane(formation: Formation, altitude: float, extent: float, resolution: int, speed: float):
    """The feature batch of an error-integration plane, at least 8 x 8 points."""
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    return _plane(formation, altitude, extent, resolution, speed)[1]


def _relative_error(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-axis sum of |pred - truth| over the sum of |truth|; NaN where the truth is all zero."""
    err = np.abs(pred - truth).sum(axis=0)
    ref = np.abs(truth).sum(axis=0)
    out = np.full(6, np.nan)
    nonzero = ref > 0.0
    out[nonzero] = err[nonzero] / ref[nonzero]
    return out


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

    ``predictor`` and ``truth`` are batch callables.  Returns a 6-vector; NaN
    marks axes whose ground truth is identically zero on the plane
    (not-applicable).
    """
    feats = _error_plane(formation, altitude, extent, resolution, speed)
    return _relative_error(predictor(feats), truth(feats))


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
            table = np.column_stack([self.positions, *self.columns.values()])
            writer.writerows([repr(v) for v in row] for row in table.tolist())


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
    zeros = np.zeros(resolution)
    centroids = np.stack([positions, zeros] if axis == "n" else [zeros, positions], axis=-1)
    feats = centroid_features(formation, centroids, altitude, speed)
    columns = {name: predictor(feats)[:, 2] for name, predictor in predictors.items()}
    columns["ground_truth"] = truth(feats)[:, 2]
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
    axis, feats = _plane(formation, altitude, extent, resolution, speed)
    return axis, axis.copy(), predictor(feats)[:, 2].reshape(resolution, resolution)


def contour_to_csv(n_axis, e_axis, values, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "e", "f_d"])
        n, e = np.meshgrid(n_axis, e_axis, indexing="ij")
        table = np.column_stack([n.ravel(), e.ravel(), np.ravel(values)])
        writer.writerows([repr(v) for v in row] for row in table.tolist())


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
    """Cross-product evaluation of all models over formations and altitudes;
    the truth is evaluated once per (formation, altitude) plane."""
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
            feats = _error_plane(formation, altitude, extent, resolution, speed)
            expected = truth(feats)
            for name, predictor in models.items():
                report.add(formation, altitude, name, _relative_error(predictor(feats), expected))
    report.mark_winners()
    return report
