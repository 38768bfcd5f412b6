"""Metrics and report generation.

The headline metric integrates |prediction - truth| per wrench axis over a
lateral plane of formation-centroid positions at fixed relative altitude
(midpoint rule), normalized by the integral of |truth| so the result is a
dimensionless relative error per axis.  Axes whose truth integrates to zero
are reported as not-applicable (NaN) instead of dividing by zero.

Predictors and the truth are *batch callables*: each maps a feature batch
(m, K, 6) to a wrench batch (m, 6), as ``model.predict_batch`` and the
functions that :func:`downwash.field.make_oracle` returns do.  Every plane,
slice and contour plane is one batch built by
:func:`downwash.formations.centroid_features` and passed to each callable
once: :func:`contour_grid` and :func:`slice_profile` take the named
callables together and return one result per name.

:func:`benchmark` marks each plane's winners where it computes that plane's
errors: on each axis, the first model with the lowest finite error wins.

Slice and contour files are float rows, encoded and written by
:func:`downwash.dataset.write_float_rows`; a contour plane's files share the
encoded ``n,e`` cells of each row.  The error table goes through
:func:`downwash.dataset.write_csv` and :func:`downwash.dataset.write_json`.
Every report file is replaced whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import WRENCH_AXES
from .dataset import write_csv, write_float_rows, write_json
from .formations import Formation, centroid_features, midpoints

AXIS_LABELS = ("N", "E", "D", "Pitch", "Roll", "Yaw")


def _plane(formation: Formation, altitude: float, extent: float, resolution: int, speed: float):
    """The midpoint lateral grid axis and its feature batch (resolution**2, K, 6), n-major."""
    axis = midpoints(extent, resolution)
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
        table = np.column_stack([self.positions, *self.columns.values()])
        write_float_rows(path, [f"{self.axis}_position", *self.columns], table)


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
    predictors: dict,
    formation: Formation,
    altitude: float,
    extent: float = 2.0,
    resolution: int = 64,
    speed: float = 0.5,
):
    """D-force of each named batch callable on the midpoint lateral grid (same
    sampling as the error metric), from one feature batch.

    Returns (axis, grids): the grid axis, shared by n and e, and per name a
    (resolution, resolution) array with grids[name][i, j] at (axis[i], axis[j]).
    """
    axis, feats = _plane(formation, altitude, extent, resolution, speed)
    shape = (resolution, resolution)
    return axis, {name: predictor(feats)[:, 2].reshape(shape) for name, predictor in predictors.items()}


def contour_to_csv(axis, grids: dict, paths: dict) -> None:
    """Write each grid of :func:`contour_grid` to ``paths[name]`` as
    ``n,e,f_d`` rows, n-major; each row's ``n,e`` cells are encoded once for
    all the files."""
    cells = list(map(repr, axis.tolist()))
    lead = [f"{n},{e}," for n in cells for e in cells]
    for name, values in grids.items():
        write_float_rows(paths[name], ["n", "e", "f_d"], np.reshape(values, (len(lead), 1)), lead)


@dataclass
class EvalReport:
    """Per-(formation, altitude, model) integrated errors with winner marks."""

    rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        header = ["formation", "k", "altitude", "model"]
        header += [f"err_{name}" for name in WRENCH_AXES]
        header += [f"win_{name}" for name in WRENCH_AXES]
        lines = [header]
        for row in self.rows:
            cells = [row["formation"], str(row["k"]), repr(row["altitude"]), row["model"]]
            cells += ["" if math.isnan(v) else repr(v) for v in row["errors"]]
            cells += [str(int(w)) for w in row.get("wins", [False] * 6)]
            lines.append(cells)
        write_csv(path, lines)

    def to_json(self, path) -> None:
        doc = {
            "config": self.config,
            "axes": list(AXIS_LABELS),
            "rows": [
                {**row, "errors": [None if math.isnan(v) else v for v in row["errors"]]}
                for row in self.rows
            ],
        }
        write_json(path, doc, indent=2)


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
            plane = {"formation": formation.label(), "k": formation.k, "altitude": float(altitude)}
            rows = []
            for name, predictor in models.items():
                errors = [float(v) for v in _relative_error(predictor(feats), expected)]
                rows.append({**plane, "model": name, "errors": errors, "wins": [False] * 6})
            for ax in range(6):
                finite = [row for row in rows if math.isfinite(row["errors"][ax])]
                if finite:
                    min(finite, key=lambda row: row["errors"][ax])["wins"][ax] = True
            report.rows += rows
    return report
