"""The three aggregate-force predictors.

* ``GridLookupModel`` — the naive baseline: a trilinear lookup table binned
  from single-neighbour measurements, queried once per neighbour and summed.
* ``LinearAggModel`` — a learnt per-neighbour network whose outputs are
  summed, so it is additive by construction.
* ``DeepSetModel`` — a permutation-invariant set network: per-neighbour
  embeddings are sum-pooled and decoded, so it can express K-wise effects.

All three sort neighbours into a canonical order before summing, which makes
permutation invariance bitwise rather than merely approximate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import FormationSnapshot, Wrench6
from .dataset import Dataset, FormatError
from .mlp import Mlp

FEATURE_DIM = 6  # relative position (3) + relative velocity (3)
MODEL_FORMAT_VERSION = 1


def snapshot_features(snap: FormationSnapshot) -> np.ndarray:
    """Per-neighbour feature rows (K, 6) in canonical order.

    Rows are sorted by (dD, dN, dE) of the relative position, with relative
    velocity breaking any remaining ties, so the summation order downstream
    is independent of the neighbour list order.
    """
    if snap.k == 0:
        return np.zeros((0, FEATURE_DIM))
    feats = np.stack([rel.features() for rel in snap.relative_states()])
    order = np.lexsort((feats[:, 5], feats[:, 4], feats[:, 3], feats[:, 1], feats[:, 0], feats[:, 2]))
    return feats[order]


class LinearAggModel:
    """Learnt linear aggregation: summed per-neighbour wrench predictions."""

    def __init__(self, psi: Mlp, metadata: dict | None = None):
        if psi.d_in != FEATURE_DIM or psi.d_out != 6:
            raise ValueError("psi must map 6 features to 6 wrench components")
        self.psi = psi
        self.metadata = metadata or {}

    @classmethod
    def initialised(cls, rng, hidden=(64, 64)) -> "LinearAggModel":
        return cls(Mlp.initialised([FEATURE_DIM, *hidden, 6], rng))

    def predict(self, snap: FormationSnapshot) -> Wrench6:
        feats = snapshot_features(snap)
        if len(feats) == 0:
            return Wrench6.zero()
        per_neighbour = self.psi.forward(feats)
        return Wrench6(np.sum(per_neighbour, axis=0))


class DeepSetModel:
    """Sum-pooled set network: decode(sum(embed(neighbour)))."""

    def __init__(self, phi: Mlp, big_phi: Mlp, metadata: dict | None = None):
        if phi.d_in != FEATURE_DIM:
            raise ValueError("phi must take the 6-dim relative feature vector")
        if big_phi.d_in != phi.d_out or big_phi.d_out != 6:
            raise ValueError("decoder dims must chain embed -> 6 wrench components")
        self.phi = phi
        self.big_phi = big_phi
        self.metadata = metadata or {}

    @classmethod
    def initialised(cls, rng, embed_dim=64, phi_hidden=(64, 64), decoder_hidden=(64,)) -> "DeepSetModel":
        phi = Mlp.initialised([FEATURE_DIM, *phi_hidden, embed_dim], rng)
        big_phi = Mlp.initialised([embed_dim, *decoder_hidden, 6], rng)
        return cls(phi, big_phi)

    def pooled_embedding(self, snap: FormationSnapshot) -> np.ndarray:
        feats = snapshot_features(snap)
        if len(feats) == 0:
            return np.zeros(self.phi.d_out)
        return np.sum(self.phi.forward(feats), axis=0)

    def predict(self, snap: FormationSnapshot) -> Wrench6:
        return Wrench6(self.big_phi.forward(self.pooled_embedding(snap)))


class GridLookupModel:
    """Trilinear-interpolated wrench table over relative position.

    ``values`` has shape (nn, ne, nd, 6) holding cell means on a regular
    grid; queries outside the bounds return the zero wrench, queries at cell
    centres return the stored cell value exactly.
    """

    def __init__(self, bounds, values: np.ndarray, metadata: dict | None = None):
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        self.values = np.asarray(values, dtype=float)
        if len(self.bounds) != 3 or self.values.ndim != 4 or self.values.shape[3] != 6:
            raise ValueError("expected 3 axis bounds and a (nn, ne, nd, 6) value array")
        for (lo, hi), n in zip(self.bounds, self.values.shape[:3]):
            if not (hi > lo and n >= 1):
                raise ValueError("bounds must be increasing with >= 1 cell per axis")
        self.metadata = metadata or {}

    def query(self, dpos) -> np.ndarray:
        """Interpolated 6-vector at one relative position; zeros outside bounds."""
        dpos = np.asarray(dpos, dtype=float)
        for x, (lo, hi) in zip(dpos, self.bounds):
            if x < lo or x > hi:
                return np.zeros(6)
        idx0 = []
        frac = []
        for x, (lo, hi), n in zip(dpos, self.bounds, self.values.shape[:3]):
            h = (hi - lo) / n
            u = (x - lo) / h - 0.5  # continuous coordinate in cell-centre units
            if n == 1:
                idx0.append(0)
                frac.append(0.0)
                continue
            i = int(np.floor(u))
            i = min(max(i, 0), n - 2)
            idx0.append(i)
            frac.append(min(max(u - i, 0.0), 1.0))
        out = np.zeros(6)
        for corner in range(8):
            weight = 1.0
            ii = []
            for ax in range(3):
                hi_corner = (corner >> ax) & 1
                n = self.values.shape[ax]
                ii.append(min(idx0[ax] + hi_corner, n - 1))
                weight *= frac[ax] if hi_corner else (1.0 - frac[ax])
            if weight != 0.0:
                out += weight * self.values[ii[0], ii[1], ii[2]]
        return out

    def predict(self, snap: FormationSnapshot) -> Wrench6:
        feats = snapshot_features(snap)
        if len(feats) == 0:
            return Wrench6.zero()
        contributions = np.stack([self.query(row[:3]) for row in feats])
        return Wrench6(np.sum(contributions, axis=0))


def fit_grid(
    data: Dataset,
    resolution=(41, 41, 3),
    lateral_bounds=None,
    vertical_bounds=None,
) -> GridLookupModel:
    """Bin noisy K=1 measurements by relative position into a lookup grid.

    Each cell stores the mean of its samples; empty cells are filled from
    the nearest non-empty cell (physical distance, so anisotropic cells are
    handled correctly).  Bounds default to the data extent per axis.
    """
    if len(data) == 0:
        raise ValueError("cannot fit a grid on an empty dataset")
    if data.k != 1:
        raise ValueError(f"grid fitting needs K=1 records, got K={data.k}")

    dpos = np.stack([rec.snapshot.relative_states()[0].dpos for rec in data.records])
    meas = np.stack([rec.measured.vec for rec in data.records])

    if lateral_bounds is None:
        lateral_bounds = (
            (float(dpos[:, 0].min()), float(dpos[:, 0].max())),
            (float(dpos[:, 1].min()), float(dpos[:, 1].max())),
        )
    if vertical_bounds is None:
        vertical_bounds = (float(dpos[:, 2].min()), float(dpos[:, 2].max()))
    bounds = [tuple(lateral_bounds[0]), tuple(lateral_bounds[1]), tuple(vertical_bounds)]
    bounds = [(lo, hi) if hi > lo else (lo - 1e-9, hi + 1e-9) for lo, hi in bounds]

    shape = tuple(int(n) for n in resolution)
    sums = np.zeros(shape + (6,))
    counts = np.zeros(shape, dtype=np.int64)
    idx = []
    inside = np.ones(len(dpos), dtype=bool)
    for ax in range(3):
        lo, hi = bounds[ax]
        h = (hi - lo) / shape[ax]
        i = np.floor((dpos[:, ax] - lo) / h).astype(np.int64)
        i = np.clip(i, 0, shape[ax] - 1)
        inside &= (dpos[:, ax] >= lo) & (dpos[:, ax] <= hi)
        idx.append(i)
    np.add.at(counts, (idx[0][inside], idx[1][inside], idx[2][inside]), 1)
    np.add.at(sums, (idx[0][inside], idx[1][inside], idx[2][inside]), meas[inside])

    values = np.zeros_like(sums)
    filled = counts > 0
    values[filled] = sums[filled] / counts[filled][:, None]
    if not filled.all():
        if not filled.any():
            raise ValueError("no samples fall inside the grid bounds")
        from scipy import ndimage  # imported here: only grid fitting needs it

        cell = [(hi - lo) / n for (lo, hi), n in zip(bounds, shape)]
        _, nearest = ndimage.distance_transform_edt(~filled, sampling=cell, return_indices=True)
        values = values[nearest[0], nearest[1], nearest[2]]

    metadata = {
        "fitted_from": data.metadata,
        "samples": int(len(data)),
        "resolution": list(shape),
    }
    return GridLookupModel(bounds, values, metadata)


def save_model(model, path) -> None:
    """Serialize a model to a versioned JSON file (bit-exact round trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"format": "downwash-model", "version": MODEL_FORMAT_VERSION}
    if isinstance(model, LinearAggModel):
        doc["kind"] = "linear"
        doc["psi"] = _mlp_doc(model.psi)
    elif isinstance(model, DeepSetModel):
        doc["kind"] = "deepset"
        doc["phi"] = _mlp_doc(model.phi)
        doc["big_phi"] = _mlp_doc(model.big_phi)
    elif isinstance(model, GridLookupModel):
        doc["kind"] = "grid"
        doc["bounds"] = [list(b) for b in model.bounds]
        doc["shape"] = list(model.values.shape)
        doc["values"] = model.values.ravel().tolist()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc["metadata"] = model.metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Read a model file written by :func:`save_model`."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return _model_from_doc(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: {exc}") from None


def _model_from_doc(doc: dict):
    if doc.get("format") != "downwash-model":
        raise ValueError("not a downwash model file")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')}")
    kind = doc.get("kind")
    metadata = doc.get("metadata", {})
    if kind == "linear":
        return LinearAggModel(_mlp_from_doc(doc["psi"]), metadata)
    if kind == "deepset":
        return DeepSetModel(_mlp_from_doc(doc["phi"]), _mlp_from_doc(doc["big_phi"]), metadata)
    if kind == "grid":
        values = np.array(doc["values"], dtype=float).reshape(doc["shape"])
        return GridLookupModel([tuple(b) for b in doc["bounds"]], values, metadata)
    raise ValueError(f"unknown model kind {kind!r}")


def _mlp_doc(net: Mlp) -> dict:
    return {
        "dims": net.layer_dims,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _mlp_from_doc(doc: dict) -> Mlp:
    return Mlp(doc["dims"], weights=doc["weights"], biases=doc["biases"])
