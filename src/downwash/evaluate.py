"""Metrics and report generation.

The headline metric integrates |prediction - truth| per wrench axis over a
lateral plane of formation-centroid positions at fixed relative altitude
(midpoint rule), normalized by the integral of |truth| so the result is a
dimensionless relative error per axis.  Axes whose truth integrates to zero
are reported as not-applicable (NaN) instead of dividing by zero.

Predictors and the truth are *batch callables*: each maps a feature batch
(m, K, 6) to a wrench batch (m, 6), as ``model.predict_batch`` and the
functions that :func:`downwash.field.make_oracle` returns do.  Each plane is
one batch built by :func:`downwash.formations.centroid_features`, and
:func:`predict_batches`, the only caller of the callables, joins the batches
of one neighbour count K, so each stage calls each callable once per K.  Both
entry points take the ``eval`` config section, :class:`EvalSettings`, whose
:meth:`~EvalSettings.planes` orders the rows and the files, and the sweep speed:

- :func:`benchmark`, the error table, builds each plane's (models x 6) errors
  and winners as arrays: on each axis, the first model with the lowest finite
  error wins, and an axis with no finite error has none.
  :func:`integrated_plane_error` is its one-plane case.  The table is written
  by :func:`downwash.dataset.write_csv` and :func:`downwash.dataset.write_json`.
- :func:`report_planes`, the slices and contours, returns plain arrays, and
  :func:`write_report` alone names their files and encodes each with
  :func:`downwash.dataset.encode_table`.

Every report file is replaced whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import WRENCH_AXES
from .dataset import encode_table, write_atomic, write_csv, write_json
from .field import Oracle
from .formations import Formation, SweepConfig, centroid_features, midpoints

AXIS_LABELS = ("N", "E", "D", "Pitch", "Roll", "Yaw")
PEAK_PROMINENCE = 0.2  # peak_indices' least prominence, as a fraction of the range: criterion 5b's measure


def altitude_tag(altitude: float) -> str:
    """An evaluation altitude as report file names spell it: 1.3 -> ``1p3``."""
    return f"{altitude:g}".replace(".", "p")


@dataclass(frozen=True)
class EvalSettings:
    """The ``eval`` config section: the planes, their truth and their grids."""

    formations: tuple[Formation, ...]
    oracle: Oracle = "merging"
    altitudes: tuple[float, ...] = (1.3,)
    extent: float = 2.0
    resolution: int = 64
    slice_axis: Literal["n", "e"] = "e"
    slice_resolution: int = 201
    contour_resolution: int = 64

    def __post_init__(self):
        if min(self.altitudes) <= 0:
            raise ValueError("altitudes: must be > 0")
        if self.extent <= 0:
            raise ValueError("extent: must be > 0")
        if self.resolution < 8:
            raise ValueError("resolution: must be >= 8")
        if self.slice_axis not in ("n", "e"):
            raise ValueError(f"slice_axis: must be 'n' or 'e', got {self.slice_axis!r}")
        for name in ("slice_resolution", "contour_resolution"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name}: must be >= 2")

    def planes(self) -> list:
        """The (formation, altitude) planes, formation-major."""
        return [(formation, altitude) for formation in self.formations for altitude in self.altitudes]


def _grid(extent: float, resolution: int):
    """The midpoint lateral grid axis and its (resolution**2, 2) centroids, n-major."""
    axis = midpoints(extent, resolution)
    n, e = np.meshgrid(axis, axis, indexing="ij")
    return axis, np.stack([n.ravel(), e.ravel()], axis=-1)


def predict_batches(callables, batches) -> list:
    """``out[i][j]`` is ``callables[j](batches[i])``.  The batches of one
    neighbour count K (``feats.shape[1]``) are joined in input order and passed
    to each callable once; each row's wrench depends on that row alone."""
    groups = {}
    for i, feats in enumerate(batches):
        groups.setdefault(feats.shape[1], []).append(i)
    out = [None] * len(batches)
    for members in groups.values():
        joined = np.concatenate([batches[i] for i in members])
        cuts = np.cumsum([len(batches[i]) for i in members])[:-1]
        for i, results in zip(members, zip(*(np.split(fn(joined), cuts) for fn in callables))):
            out[i] = list(results)
    return out


def integrated_plane_error(
    predictor,
    truth,
    formation: Formation,
    altitude: float,
    extent: float = EvalSettings.extent,
    resolution: int = EvalSettings.resolution,
    speed: float = SweepConfig.speed,
) -> np.ndarray:
    """Normalized per-axis error integrated over the lateral plane: the
    :func:`benchmark` of one plane and one predictor.

    ``predictor`` and ``truth`` are batch callables.  Returns a 6-vector; NaN
    marks axes whose ground truth is identically zero on the plane
    (not-applicable).
    """
    ev = EvalSettings((formation,), altitudes=(altitude,), extent=extent, resolution=resolution)
    return np.array(benchmark({"model": predictor}, truth, ev, speed).rows[0]["errors"])


def peak_indices(values: np.ndarray) -> np.ndarray:
    """Ascending indices of the local maxima whose prominence is at least
    :data:`PEAK_PROMINENCE` of the range: the peaks of
    ``scipy.signal.find_peaks(values, prominence=PEAK_PROMINENCE * spread)``.

    A maximum is a run of equal values (a plateau) with a strictly lower
    neighbour on each side, so a run touching either end of the array is none;
    it sits at the run's middle index ``(left + right) // 2``.  Each base search
    walks outward from the peak while values stay ``<=`` the peak's (a higher
    value, a NaN or the array's end stops it), and the prominence is the peak
    minus the higher of the two sides' minima."""
    x = np.asarray(values, dtype=float)
    spread = x.max() - x.min()
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], len(x)] - 1
    inner = (starts > 0) & (ends < len(x) - 1)
    left, right = starts[inner], ends[inner]
    tops = ((left + right) // 2)[(x[left - 1] < x[left]) & (x[right + 1] < x[left])]
    kept = []
    for top in tops:
        stops = np.r_[-1, np.flatnonzero(~(x <= x[top])), len(x)]
        i = np.searchsorted(stops, top)
        lo, hi = stops[i - 1] + 1, stops[i]
        if x[top] - max(x[lo : top + 1].min(), x[top:hi].min()) >= PEAK_PROMINENCE * spread:
            kept.append(top)
    return np.array(kept, dtype=np.intp)


def count_peaks(values: np.ndarray) -> int:
    """Number of :func:`peak_indices`: criterion 5b's measure."""
    return len(peak_indices(values))


def report_planes(callables: dict, ev: EvalSettings, speed: float) -> tuple:
    """D-forces of the named batch callables on each plane of ``ev.planes()``,
    as ``(positions, axis, planes)``: the slice's points along ``ev.slice_axis``
    through the formation centroid and the contours' midpoint grid axis, both
    shared by every plane, and per plane ``(columns, grids)``, where
    ``columns[name]`` is the slice and ``grids[name][i, j]`` the contour at
    (n, e) = (axis[i], axis[j]).  A plane's slice and contour centroids make
    one feature batch, and all go through :func:`predict_batches` together."""
    positions = np.linspace(-ev.extent / 2.0, ev.extent / 2.0, ev.slice_resolution)
    zeros = np.zeros(ev.slice_resolution)
    line = np.stack([positions, zeros] if ev.slice_axis == "n" else [zeros, positions], axis=-1)
    axis, grid = _grid(ev.extent, ev.contour_resolution)
    centroids = np.concatenate([line, grid])
    batches = [centroid_features(formation, centroids, altitude, speed) for formation, altitude in ev.planes()]
    planes = []
    for results in predict_batches(list(callables.values()), batches):
        forces = dict(zip(callables, (wrench[:, 2] for wrench in results)))
        columns = {name: values[: ev.slice_resolution] for name, values in forces.items()}
        grids = {name: values[ev.slice_resolution :].reshape(axis.size, axis.size) for name, values in forces.items()}
        planes.append((columns, grids))
    return positions, axis, planes


def write_report(ev: EvalSettings, out, positions, axis, planes) -> list:
    """Write what :func:`report_planes` returns into the directory ``out``, and
    return the paths: per plane of ``ev.planes()``, tagged ``<label>_<altitude_tag>``,
    ``slice_<tag>.csv`` (``<slice_axis>_position`` and one column per name),
    then per name ``contour_<tag>_<name>.csv`` (``n,e,f_d`` rows, n-major)."""
    n, e = (coords.ravel() for coords in np.meshgrid(axis, axis, indexing="ij"))
    paths = []
    for (formation, altitude), (columns, grids) in zip(ev.planes(), planes):
        tag = f"{formation.label()}_{altitude_tag(altitude)}"
        paths.append(out / f"slice_{tag}.csv")
        write_atomic(paths[-1], encode_table([f"{ev.slice_axis}_position", *columns], [positions, *columns.values()]))
        for name, values in grids.items():
            paths.append(out / f"contour_{tag}_{name}.csv")
            write_atomic(paths[-1], encode_table(["n", "e", "f_d"], [n, e, np.ravel(values)]))
    return paths


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
            cells += [str(int(w)) for w in row["wins"]]
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


def benchmark(models: dict, truth, ev: EvalSettings, speed: float) -> EvalReport:
    """Evaluation of all models on each plane of ``ev.planes()``, one row per
    plane and model in that order; the models and the truth see every plane
    of one K in one call."""
    report = EvalReport(config={"extent": ev.extent, "resolution": ev.resolution, "speed": speed})
    report.config["altitudes"] = [float(a) for a in ev.altitudes]
    report.config["oracle"] = ev.oracle
    grid = _grid(ev.extent, ev.resolution)[1]
    planes = ev.planes()
    batches = [centroid_features(formation, grid, altitude, speed) for formation, altitude in planes]
    results = predict_batches([*models.values(), truth], batches)
    for (formation, altitude), (*predictions, expected) in zip(planes, results):
        ref = np.abs(expected).sum(axis=0)
        err = np.abs(np.stack(predictions) - expected).sum(axis=1)
        errors = np.divide(err, ref, out=np.full(err.shape, np.nan), where=ref > 0.0)
        finite = np.isfinite(errors)
        best = np.argmin(np.where(finite, errors, np.inf), axis=0)
        wins = (np.arange(len(models))[:, None] == best) & finite.any(axis=0)
        plane = {"formation": formation.label(), "k": formation.k, "altitude": float(altitude)}
        report.rows += [
            {**plane, "model": name, "errors": row.tolist(), "wins": won.tolist()}
            for name, row, won in zip(models, errors, wins)
        ]
    return report
