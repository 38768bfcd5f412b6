"""The three aggregate-force predictors.

* ``GridLookupModel`` — the naive baseline: a trilinear lookup table binned
  from single-neighbour measurements, queried once per neighbour and summed.
* ``LinearAggModel`` — a learnt per-neighbour network whose outputs are
  summed, so it is additive by construction.
* ``DeepSetModel`` — a permutation-invariant set network: per-neighbour
  embeddings are sum-pooled and decoded, so it can express K-wise effects.

Each model maps a feature batch (m, K, 6) to a wrench batch (m, 6) with
``predict_batch``, the batch callable that evaluation takes; ``predict``
wraps it for one ``FormationSnapshot``.  Feature rows arrive in canonical
order (see :mod:`downwash.core`), which makes permutation invariance bitwise
rather than merely approximate.

The two learnt models are one set network, ``forward(rows, counts)`` and
``backward``, which training and ``predict_batch`` share.  A batch is
ragged: the neighbour feature rows of all samples stacked sample by sample
(R, 6), plus each sample's row count (n,), so samples of different K (K=0
included) mix in one batch with no padding.
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


def segment_sum(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-sample sums (n, d) of stacked rows (sum(counts), d), sample i owning
    the next ``counts[i]`` rows; zero for a sample with none.  Each sum runs
    left to right from zero, ((0 + a) + b) + c, as ``sum(axis=1)`` does on a
    (n, K, d) batch, so it never depends on the batch around it
    (``np.add.reduceat`` sums a + (b + c) and rejects a trailing empty segment)."""
    out = np.zeros((len(counts), rows.shape[1]))
    starts = np.cumsum(counts) - counts
    for j in range(int(counts.max(initial=0))):
        # row j of each sample; a sample with fewer rows reads a clamped index, masked out
        row_j = rows[np.minimum(starts + j, len(rows) - 1)]
        np.add(out, row_j, out=out, where=(counts > j)[:, None])
    return out


class _Model:
    """Shared batch-of-one entry point of the three predictors."""

    def predict(self, snap: FormationSnapshot) -> Wrench6:
        """The wrench for one snapshot: :meth:`predict_batch` on a batch of one."""
        return Wrench6(self.predict_batch(snap.features()[None])[0])


class _SetNet(_Model):
    """decoder(sum(encoder(neighbour))) over ragged neighbour sets (see the
    module docstring); without a decoder the pooled encoder outputs are the
    prediction."""

    def __init__(self, encoder: Mlp, decoder: Mlp | None, metadata: dict | None):
        last = decoder or encoder
        if encoder.d_in != FEATURE_DIM or last.d_out != 6 or (decoder and decoder.d_in != encoder.d_out):
            raise ValueError("the set network must chain 6 features -> (embedding ->) 6 wrench components")
        self.encoder = encoder
        self.decoder = decoder
        self.metadata = metadata or {}

    def parameters(self) -> list:
        """All trainable parameter arrays, encoder first, then the decoder."""
        nets = [self.encoder] if self.decoder is None else [self.encoder, self.decoder]
        return [p for net in nets for p in net.parameters()]

    def forward(self, rows: np.ndarray, counts: np.ndarray):
        """Predictions (n, 6) of a ragged batch, and the cache for :meth:`backward`."""
        embed, enc_cache = self.encoder.forward_cached(rows)
        pooled = segment_sum(embed, counts)
        if self.decoder is None:
            return pooled, (counts, enc_cache, None)
        pred, dec_cache = self.decoder.forward_cached(pooled)
        return pred, (counts, enc_cache, dec_cache)

    def backward(self, cache, dpred: np.ndarray) -> list:
        """Gradients in :meth:`parameters` order, given d loss / d pred (n, 6)."""
        counts, enc_cache, dec_cache = cache
        dec_grads = []
        if dec_cache is not None:
            gw, gb, dpred = self.decoder.backward(dec_cache, dpred)
            dec_grads = [g for pair in zip(gw, gb) for g in pair]
        # every row of a sample receives that sample's pooled gradient
        gw, gb, _ = self.encoder.backward(enc_cache, np.repeat(dpred, counts, axis=0))
        return [g for pair in zip(gw, gb) for g in pair] + dec_grads

    def predict_batch(self, feats: np.ndarray) -> np.ndarray:
        m, k, _ = feats.shape
        return self.forward(feats.reshape(-1, FEATURE_DIM), np.full(m, k))[0]


class LinearAggModel(_SetNet):
    """Learnt linear aggregation: summed per-neighbour wrench predictions,
    i.e. the set network without a decoder."""

    psi = property(lambda self: self.encoder)

    def __init__(self, psi: Mlp, metadata: dict | None = None):
        super().__init__(psi, None, metadata)

    @classmethod
    def initialised(cls, rng, hidden=(64, 64)) -> "LinearAggModel":
        return cls(Mlp.initialised([FEATURE_DIM, *hidden, 6], rng))


class DeepSetModel(_SetNet):
    """Sum-pooled set network: decode(sum(embed(neighbour)))."""

    phi = property(lambda self: self.encoder)
    big_phi = property(lambda self: self.decoder)

    def __init__(self, phi: Mlp, big_phi: Mlp, metadata: dict | None = None):
        super().__init__(phi, big_phi, metadata)

    @classmethod
    def initialised(cls, rng, embed_dim=64, phi_hidden=(64, 64), decoder_hidden=(64,)) -> "DeepSetModel":
        phi = Mlp.initialised([FEATURE_DIM, *phi_hidden, embed_dim], rng)
        big_phi = Mlp.initialised([embed_dim, *decoder_hidden, 6], rng)
        return cls(phi, big_phi)


class GridLookupModel(_Model):
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
        """Interpolated wrenches (..., 6) at relative positions (..., 3); zeros outside bounds."""
        dpos = np.asarray(dpos, dtype=float)
        lo, hi = np.array(self.bounds).T
        cells = np.array(self.values.shape[:3])
        u = (dpos - lo) / ((hi - lo) / cells) - 0.5  # continuous coordinate in cell-centre units
        i0 = np.clip(np.floor(u).astype(np.int64), 0, np.maximum(cells - 2, 0))
        frac = np.clip(u - i0, 0.0, 1.0)
        # the 8 corners, axis 0 varying fastest: (8, 3) bits, (..., 8, 3) indices and factors
        bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
        idx = np.minimum(i0[..., None, :] + bits, cells - 1)
        weight = np.where(bits, frac[..., None, :], 1.0 - frac[..., None, :]).prod(axis=-1)
        out = (weight[..., None] * self.values[idx[..., 0], idx[..., 1], idx[..., 2]]).sum(axis=-2)
        inside = np.all((dpos >= lo) & (dpos <= hi), axis=-1)
        return np.where(inside[..., None], out, 0.0)

    def predict_batch(self, feats: np.ndarray) -> np.ndarray:
        return self.query(feats[..., :3]).sum(axis=1)


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

    dpos = data.states[:, 1, :3] - data.states[:, 0, :3]
    meas = data.measured

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
