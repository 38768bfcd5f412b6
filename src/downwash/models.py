"""The three aggregate-force predictors.

* ``GridLookupModel`` — the naive baseline: a trilinear lookup table binned
  from single-neighbour measurements over the volume their sweep explored,
  queried once per neighbour and summed.
* ``LinearAggModel`` — a learnt per-neighbour network whose outputs are
  summed, so it is additive by construction.
* ``DeepSetModel`` — a permutation-invariant set network: per-neighbour
  embeddings are sum-pooled and decoded, so it can express K-wise effects.

Each model maps a feature batch (m, K, 6) to a wrench batch (m, 6) with
``predict_batch``, the batch callable that evaluation takes; ``predict``
wraps it for one ``FormationSnapshot``, for the scripts under ``benchmarks/``
that build samples as objects.  Feature rows arrive in canonical
order (see :mod:`downwash.core`), which makes permutation invariance bitwise
rather than merely approximate.

The two learnt models are one set network, ``forward(rows, counts)`` and
``backward``, which training and ``predict_batch`` share.  A batch is
ragged: the neighbour feature rows of all samples stacked sample by sample
(R, 6), plus each sample's row count (n,), so samples of different K (K=0
included) mix in one batch with no padding.

A set network is one float64 vector ``flat``: the per-neighbour
``encoder``, then the deep set's ``decoder``.  Both networks are built on
slices of it, and ``named_parameters`` lists every weight and bias by name
as a view into it.  ``backward`` returns the gradient as one vector with the
same layout, newly allocated on each call unless the caller passes its own.
Training passes a workspace (``workspace(samples, rows)``) that it owns and
reuses for every step; ``predict_batch`` passes none, so the predictions it
returns never share memory with a later call.

Model files (:func:`save_model`, format version 2) are sorted-key JSON
documents whose parameter arrays are the arrays' exact bytes: base64 text of
little-endian float64 (``"<f8"``).  A network is ``{"dims", "flat"}``, the
payload in :attr:`Mlp.flat` order (W0, b0, W1, b1, ...), under the keys
``psi`` (a linear model's encoder) or ``phi`` and ``big_phi`` (a deep set's
encoder and decoder); a grid keeps ``bounds`` and ``shape`` as JSON and its
``values`` as a payload in C order.
:func:`load_model` requires ``dims`` and ``shape`` to be lists of plain
positive integers, a grid's ``bounds`` 3 pairs of plain finite numbers, and
each payload to hold exactly the values they call for, all finite, before it
builds a model on them; any other file is a ``FormatError`` naming it.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import FormationSnapshot, Wrench6
from .dataset import Dataset, FormatError, write_json
from .formations import SweepConfig
from .mlp import Mlp, Workspace, parameter_count

FEATURE_DIM = 6  # relative position (3) + relative velocity (3)
MODEL_FORMAT_VERSION = 2


def segment_sum(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-sample sums (n, d) of stacked rows (sum(counts), d), sample i owning
    the next ``counts[i]`` rows; zero for a sample with none.  Each sum runs
    left to right from zero, ((0 + a) + b) + c, as ``sum(axis=1)`` does on a
    (n, K, d) batch, so it never depends on the batch around it
    (``np.add.reduceat`` sums a + (b + c) and rejects a trailing empty segment)."""
    out = np.zeros((len(counts), rows.shape[1]))
    starts = np.cumsum(counts) - counts
    for j in range(int(counts.max(initial=0))):
        has = counts > j  # the samples that own a row j
        if has.all():
            out += rows[starts + j]
        else:
            out[has] += rows[starts[has] + j]
    return out


class _Model:
    """The per-snapshot entry point of the three predictors, which the
    scripts under ``benchmarks/`` call; everything else calls ``predict_batch``."""

    def predict(self, snap: FormationSnapshot) -> Wrench6:
        """The wrench for one snapshot: :meth:`predict_batch` on a batch of one."""
        return Wrench6(self.predict_batch(snap.features()[None])[0])


class _SetNet(_Model):
    """decoder(sum(encoder(neighbour))) over ragged neighbour sets (see the
    module docstring); without a decoder the pooled encoder outputs are the
    prediction.

    The parameters are one float64 vector ``flat``: a copy of the given
    networks' vectors, encoder first.  :attr:`encoder` and :attr:`decoder`
    are networks on slices of it, so a gradient laid out like ``flat``
    splits at ``len(encoder.flat)``.
    """

    def __init__(self, encoder: Mlp, decoder: Mlp | None, metadata: dict | None):
        last = decoder or encoder
        if encoder.d_in != FEATURE_DIM or last.d_out != 6 or (decoder and decoder.d_in != encoder.d_out):
            raise ValueError("the set network must chain 6 features -> (embedding ->) 6 wrench components")
        self.flat = np.concatenate([net.flat for net in (encoder, decoder) if net is not None])
        split = len(encoder.flat)
        self.encoder = Mlp(encoder.layer_dims, self.flat[:split])
        self.decoder = decoder and Mlp(decoder.layer_dims, self.flat[split:])
        self.metadata = metadata or {}

    def named_parameters(self) -> dict:
        """Every weight and bias as a view of :attr:`flat`, in its order, by
        name: ``encoder.W0``, ``encoder.b0``, ``encoder.W1``, ..., then the
        decoder's."""
        return {
            f"{role}.{kind}{i}": view
            for role, net in (("encoder", self.encoder), ("decoder", self.decoder))
            if net is not None
            for i, pair in enumerate(zip(net.weights, net.biases))
            for kind, view in zip("Wb", pair)
        }

    def workspace(self, samples: int, rows: int) -> tuple:
        """Training buffers for batches of up to ``samples`` samples owning
        up to ``rows`` neighbour rows in all (see :class:`~downwash.mlp.Workspace`)."""
        return Workspace(self.encoder, rows), self.decoder and Workspace(self.decoder, samples)

    def forward(self, rows: np.ndarray, counts: np.ndarray, workspace: tuple | None = None):
        """Predictions (n, 6) of a ragged batch, and the cache for :meth:`backward`.

        With a workspace from :meth:`workspace` the predictions and the
        cache live in it until the next call; without one they are new arrays.
        """
        enc_ws, dec_ws = workspace or (None, None)
        embed, enc_cache = self.encoder.forward_cached(rows, enc_ws)
        pooled = segment_sum(embed, counts)
        if self.decoder is None:
            return pooled, (counts, enc_cache, None)
        pred, dec_cache = self.decoder.forward_cached(pooled, dec_ws)
        return pred, (counts, enc_cache, dec_cache)

    def backward(self, cache, dpred: np.ndarray, workspace: tuple | None = None, out=None) -> np.ndarray:
        """The gradient laid out like :attr:`flat`, given d loss / d pred (n, 6):
        ``out``, or a new vector when not given, so earlier results are never
        overwritten."""
        counts, enc_cache, dec_cache = cache
        enc_ws, dec_ws = workspace or (None, None)
        grad = np.empty(len(self.flat)) if out is None else out
        split = len(self.encoder.flat)
        if dec_cache is not None:
            _, delta = self.decoder.backward(dec_cache, dpred, dec_ws, grad[split:])
            dpooled = None if dec_ws is None else dec_ws.delta(0, len(delta))
            dpred = np.matmul(delta, self.decoder.weights[0].T, out=dpooled)
        # every row of a sample receives that sample's pooled gradient
        sample_of_row = np.repeat(np.arange(len(counts)), counts)
        drows = None if enc_ws is None else enc_ws.delta(-1, len(sample_of_row))
        drows = np.take(dpred, sample_of_row, axis=0, out=drows)
        self.encoder.backward(enc_cache, drows, enc_ws, grad[:split])
        return grad

    def predict_batch(self, feats: np.ndarray) -> np.ndarray:
        m, k, _ = feats.shape
        return self.forward(feats.reshape(-1, FEATURE_DIM), np.full(m, k))[0]


class LinearAggModel(_SetNet):
    """Learnt linear aggregation: summed per-neighbour wrench predictions,
    i.e. the set network without a decoder."""

    def __init__(self, encoder: Mlp, metadata: dict | None = None):
        super().__init__(encoder, None, metadata)

    @classmethod
    def initialised(cls, rng, hidden=(64, 64)) -> "LinearAggModel":
        return cls(Mlp.initialised([FEATURE_DIM, *hidden, 6], rng))


class DeepSetModel(_SetNet):
    """Sum-pooled set network: decode(sum(embed(neighbour)))."""

    def __init__(self, encoder: Mlp, decoder: Mlp, metadata: dict | None = None):
        super().__init__(encoder, decoder, metadata)

    @classmethod
    def initialised(cls, rng, embed_dim=64, phi_hidden=(64, 64), decoder_hidden=(64,)) -> "DeepSetModel":
        encoder = Mlp.initialised([FEATURE_DIM, *phi_hidden, embed_dim], rng)
        decoder = Mlp.initialised([embed_dim, *decoder_hidden, 6], rng)
        return cls(encoder, decoder)


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


def fit_grid(data: Dataset, sweep: SweepConfig, resolution) -> GridLookupModel:
    """Bin noisy K=1 measurements by relative position into a lookup grid
    over the volume ``sweep`` explored: ``resolution`` (n, e) cells centred on
    its legs, and one vertical cell per altitude plane.

    Each cell stores the mean of its samples; empty cells are filled from
    the nearest non-empty cell (physical distance, so anisotropic cells are
    handled correctly).
    """
    if len(data) == 0:
        raise ValueError("cannot fit a grid on an empty dataset")
    if data.k != 1:
        raise ValueError(f"grid fitting needs K=1 records, got K={data.k}")

    half = sweep.lateral_extent / 2.0
    alts = sorted(set(sweep.altitudes))
    # With one plane there is no altitude step, so the formation spacing
    # stands in.  The fitted table does not depend on it (every record lies on
    # the plane); it only sets how far off the plane a query still reads the
    # plane's values: spacing/2 either way, zero beyond.
    step = (alts[-1] - alts[0]) / (len(alts) - 1) if len(alts) > 1 else sweep.spacing
    bounds = [(-half, half), (-half, half), (-alts[-1] - step / 2.0, -alts[0] + step / 2.0)]

    shape = (int(resolution[0]), int(resolution[1]), len(alts))
    dpos = data.states[:, 1, :3] - data.states[:, 0, :3]
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
    np.add.at(sums, (idx[0][inside], idx[1][inside], idx[2][inside]), data.measured[inside])

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
    """Serialize a model to a versioned JSON file (bit-exact round trip).

    Version 2 layout (see the module docstring): parameter arrays are base64
    text of little-endian float64 (``"<f8"``), each network's :attr:`Mlp.flat`
    (W0, b0, W1, b1, ...) under ``psi`` or ``phi``/``big_phi`` beside its
    ``dims``, a grid's ``values`` in C order beside its JSON ``bounds`` and
    ``shape``.  :func:`load_model` requires each payload to hold exactly the
    values its dims or shape call for, all finite.

    The whole document is encoded first, so a value JSON cannot hold raises
    before the file is touched; the file is then replaced atomically."""
    doc = {"format": "downwash-model", "version": MODEL_FORMAT_VERSION}
    if isinstance(model, LinearAggModel):
        doc["kind"] = "linear"
        doc["psi"] = _mlp_doc(model.encoder)
    elif isinstance(model, DeepSetModel):
        doc["kind"] = "deepset"
        doc["phi"] = _mlp_doc(model.encoder)
        doc["big_phi"] = _mlp_doc(model.decoder)
    elif isinstance(model, GridLookupModel):
        doc["kind"] = "grid"
        doc["bounds"] = [list(b) for b in model.bounds]
        doc["shape"] = list(model.values.shape)
        doc["values"] = _encode(model.values)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc["metadata"] = model.metadata
    write_json(path, doc)


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
        raise ValueError(
            f"model format version {doc.get('version')} is not {MODEL_FORMAT_VERSION};"
            " re-run 'downwash train' to rewrite the model files"
        )
    kind = doc.get("kind")
    metadata = doc.get("metadata", {})
    if kind == "linear":
        return LinearAggModel(_mlp_from_doc(doc["psi"]), metadata)
    if kind == "deepset":
        return DeepSetModel(_mlp_from_doc(doc["phi"]), _mlp_from_doc(doc["big_phi"]), metadata)
    if kind == "grid":
        shape = _positive_ints(doc["shape"], "grid shape", 1)
        values = _decode(doc["values"], math.prod(shape)).reshape(shape)
        return GridLookupModel(_finite_bounds(doc["bounds"]), values, metadata)
    raise ValueError(f"unknown model kind {kind!r}")


def _encode(values: np.ndarray) -> str:
    """Base64 text of the little-endian float64 bytes of ``values``, in C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, count: int) -> np.ndarray:
    """The ``count`` finite values of an :func:`_encode` payload, as a new
    writable array (never a view of the decoded bytes)."""
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * count:
        raise ValueError(f"payload holds {len(raw)} bytes, expected {8 * count} ({count} float64 values)")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("payload holds a non-finite value")
    return values.astype(float)


def _mlp_doc(net: Mlp) -> dict:
    return {"dims": net.layer_dims, "flat": _encode(net.flat)}


def _positive_ints(value, what: str, least: int) -> list:
    """``value`` if it is a list of at least ``least`` plain positive ints
    (no bool, no float); a ValueError otherwise."""
    if not (isinstance(value, list) and len(value) >= least and all(type(n) is int and n > 0 for n in value)):
        raise ValueError(f"{what} {value!r} is not a list of at least {least} positive integers")
    return value


def _finite_bounds(value) -> list:
    """``value`` if it is a list of 3 [lo, hi] lists of plain finite numbers (no
    bool, no str, no int beyond the float range); a ValueError otherwise."""
    pairs = isinstance(value, list) and len(value) == 3 and all(isinstance(p, list) and len(p) == 2 for p in value)
    if not (pairs and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for p in value for x in p)):
        raise ValueError(f"grid bounds {value!r} are not 3 pairs of finite numbers")
    return value


def _mlp_from_doc(doc: dict) -> Mlp:
    dims = _positive_ints(doc["dims"], "network dims", 2)
    return Mlp(dims, _decode(doc["flat"], parameter_count(dims)))
