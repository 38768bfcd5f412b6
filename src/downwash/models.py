"""The three aggregate-force predictors.

* ``GridLookupModel`` — the naive baseline: a trilinear lookup table binned
  from single-neighbour measurements over the volume their sweep explored,
  queried once per neighbour and summed.  An empty cell takes the values of
  its nearest filled cell in physical distance, chosen among equally near
  cells as ``scipy.ndimage.distance_transform_edt`` chooses, by a numpy
  search along one axis at a time (see :func:`fit_grid`).
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
``backward``, which training and ``predict_batch`` share; ``initialised(rng,
settings)`` sizes one from its ``LinearSettings`` or ``DeepSetSettings``.  A
batch is ragged: the neighbour feature rows of all samples stacked sample by
sample (R, 6), plus each sample's row count (n,), so samples of different K
(K=0 included) mix in one batch with no padding.

A set network is one vector ``flat``: the per-neighbour ``encoder``, then
the deep set's ``decoder``.  Both networks are built on slices of it, and
``named_parameters`` lists every weight and bias by name as a view into it.
``backward`` returns the gradient as one vector with the same layout and
dtype, newly allocated on each call unless the caller passes its own.
Every model built or loaded here is float64; ``astype(np.float32)`` makes
the float32 copy that a training step runs on (see :mod:`downwash.training`).
Training passes a workspace (``workspace(samples, rows)``) that it owns and
reuses for every step; ``predict_batch`` passes none, so the predictions it
returns never share memory with a later call.

Model files (:func:`save_model`, format version 2) are sorted-key JSON
documents whose parameter arrays are the arrays' exact bytes: base64 text of
little-endian float64 (``"<f8"``).  Each class's ``KIND`` is its file's
``kind``.  A network is ``{"dims", "flat"}``, the payload in
:attr:`Mlp.flat` order (W0, b0, W1, b1, ...), under the class's ``NETS``
keys, encoder first (``psi``, or ``phi`` and ``big_phi``); a grid keeps
``bounds`` and ``shape`` as JSON and its ``values`` as a payload in C order.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FormationSnapshot, Wrench6
from .dataset import Dataset, FormatError, write_json
from .formations import SweepConfig
from .mlp import Mlp, Workspace, parameter_count

FEATURE_DIM = 6  # relative position (3) + relative velocity (3)
MODEL_FORMAT_VERSION = 2
FILL_BLOCK = 1 << 18  # most (cell, candidate) distances one pass of _nearest_filled holds at once


def _require_sizes(settings, *names: str) -> None:
    """A ValueError at the first field of ``names`` (sizes or tuples of sizes) holding one below 1."""
    for name in names:
        sizes = getattr(settings, name)
        if min(sizes if isinstance(sizes, tuple) else (sizes,)) < 1:
            raise ValueError(f"{name}: every size must be >= 1, got {sizes!r}")


@dataclass(frozen=True)
class NaiveSettings:
    fit_on: str = "single_k1"
    resolution: tuple[int, ...] = (36, 50)   # lateral (n, e) cells

    def __post_init__(self):
        if len(self.resolution) != 2:
            raise ValueError("resolution: expected [n_cells, e_cells]")
        _require_sizes(self, "resolution")


@dataclass(frozen=True)
class LinearSettings:
    train_on: tuple[str, ...] = ("single_k1",)
    hidden: tuple[int, ...] = (64, 64)       # encoder hidden sizes

    def __post_init__(self):
        _require_sizes(self, "hidden")


@dataclass(frozen=True)
class DeepSetSettings:
    train_on: tuple[str, ...] = ("leader_follower_k3",)
    embed_dim: int = 64
    phi_hidden: tuple[int, ...] = (64, 64)
    decoder_hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        _require_sizes(self, "embed_dim", "phi_hidden", "decoder_hidden")


def segment_sum(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-sample sums (n, d), in the rows' dtype, of stacked rows
    (sum(counts), d), sample i owning the next ``counts[i]`` rows; zero for a
    sample with none.  Each sum runs left to right from zero,
    ((0 + a) + b) + c, as ``sum(axis=1)`` does on a (n, K, d) batch, so it
    never depends on the batch around it (``np.add.reduceat`` sums
    a + (b + c) and rejects a trailing empty segment)."""
    out = np.zeros((len(counts), rows.shape[1]), rows.dtype)
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

    The parameters are one vector ``flat``: a copy of the given networks'
    vectors, encoder first, in their dtype.  :attr:`encoder` and :attr:`decoder`
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

    def astype(self, dtype) -> "_SetNet":
        """A network of the same class and layer sizes whose ``flat`` is a
        copy of this one's cast to ``dtype``; its metadata starts empty."""
        nets = [Mlp(net.layer_dims, net.flat.astype(dtype)) for net in (self.encoder, self.decoder) if net]
        return type(self)(*nets)

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
        grad = np.empty_like(self.flat) if out is None else out
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
    KIND, NETS = "linear", ("psi",)
    def __init__(self, encoder: Mlp, metadata: dict | None = None):
        super().__init__(encoder, None, metadata)

    @classmethod
    def initialised(cls, rng, settings: LinearSettings = LinearSettings()) -> "LinearAggModel":
        return cls(Mlp.initialised([FEATURE_DIM, *settings.hidden, 6], rng))


class DeepSetModel(_SetNet):
    """Sum-pooled set network: decode(sum(embed(neighbour)))."""
    KIND, NETS = "deepset", ("phi", "big_phi")
    def __init__(self, encoder: Mlp, decoder: Mlp, metadata: dict | None = None):
        super().__init__(encoder, decoder, metadata)

    @classmethod
    def initialised(cls, rng, settings: DeepSetSettings = DeepSetSettings()) -> "DeepSetModel":
        encoder = Mlp.initialised([FEATURE_DIM, *settings.phi_hidden, settings.embed_dim], rng)
        decoder = Mlp.initialised([settings.embed_dim, *settings.decoder_hidden, 6], rng)
        return cls(encoder, decoder)


class GridLookupModel(_Model):
    """Trilinear-interpolated wrench table over relative position.

    ``values`` has shape (nn, ne, nd, 6) holding cell means on a regular
    grid; queries outside the bounds return the zero wrench, queries at cell
    centres return the stored cell value exactly.
    """
    KIND = "grid"
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
        """Interpolated wrenches (..., 6) at relative positions (..., 3); zeros outside bounds.

        The 8 corners of a point's cell are taken with axis 0 (n) varying
        fastest, then e, then d.  Each corner's weight is ``(w_n * w_e) * w_d``,
        and the weighted corners c0..c7 are added left to right from zero,
        ((0 + c0) + c1) + ... + c7, as ``sum`` over a (..., 8, 6) corner axis
        does.  The result's bits, signed zeros included, depend on both orders.
        """
        dpos = np.asarray(dpos, dtype=float)
        lo, hi = np.array(self.bounds).T
        cells = np.array(self.values.shape[:3])
        u = (dpos - lo) / ((hi - lo) / cells) - 0.5  # continuous coordinate in cell-centre units
        i0 = np.clip(np.floor(u).astype(np.int64), 0, np.maximum(cells - 2, 0))
        frac = np.clip(u - i0, 0.0, 1.0)
        # per axis: the (low, high) corner's term of the flat row index into
        # the (nn * ne * nd, 6) table, and the (low, high) corner's weight
        strides = (cells[1] * cells[2], cells[2], 1)
        index = [(i0[..., a] * s, np.minimum(i0[..., a] + 1, cells[a] - 1) * s) for a, s in enumerate(strides)]
        weight = [(1.0 - frac[..., a], frac[..., a]) for a in range(3)]
        table = self.values.reshape(-1, 6)
        out = np.zeros(dpos.shape[:-1] + (6,))
        for corner in range(8):
            n, e, d = corner & 1, corner >> 1 & 1, corner >> 2
            w = (weight[0][n] * weight[1][e]) * weight[2][d]
            out += w[..., None] * table[index[0][n] + index[1][e] + index[2][d]]
        inside = np.all((dpos >= lo) & (dpos <= hi), axis=-1)
        return np.where(inside[..., None], out, 0.0)

    def predict_batch(self, feats: np.ndarray) -> np.ndarray:
        return self.query(feats[..., :3]).sum(axis=1)


def evenly_spaced(values) -> bool:
    """Whether the distinct ``values``, sorted, have equal gaps to within float rounding."""
    gaps = np.diff(sorted(set(values)))
    return gaps.size == 0 or np.ptp(gaps) <= 1e-9 * gaps.max()


def _nearest_filled(filled: np.ndarray, cell) -> np.ndarray:
    """Index arrays (ndim, *shape) of each cell's nearest ``filled`` cell: the
    separable feature transform (Maurer, Qi and Raghavan, IEEE TPAMI 2003)
    whose result ``scipy.ndimage.distance_transform_edt(~filled,
    sampling=cell, return_indices=True)`` returns.

    Pass d runs along axis d.  A line position offers the nearest filled cell
    f that the earlier passes gave it, if any; each cell x on the line takes
    the offer with the least ``sum(((f_j - x_j) * cell_j)**2)``, accumulated
    from 0.0 over j = 0, 1, ... in order with the integer difference cast to
    float first, as scipy's C code does, and the lowest line position on a
    tie.  A cell on a line that offers nothing stays without a cell (at
    infinite distance) until a later pass.  A pass holds at most
    ``FILL_BLOCK`` (cell, offer) distances at a time.
    """
    nearest = np.indices(filled.shape)
    dist = np.where(filled, 0.0, np.inf)  # each cell's squared distance to its offer, over the axes searched
    for d, n in enumerate(filled.shape):
        lines = np.moveaxis(dist, d, -1)
        offers = lines.reshape(-1, n)
        choice, best = np.empty(offers.shape, dtype=np.intp), np.empty(offers.shape)
        rows, cols = max(1, FILL_BLOCK // (n * n)), min(n, max(1, FILL_BLOCK // n))
        gap = np.arange(n)
        for b in range(0, n, cols):
            along = ((gap - gap[b : b + cols, None]) * cell[d]) ** 2  # indexed [x_d - b, f_d]
            for a in range(0, len(offers), rows):
                block = offers[a : a + rows, None] + along
                choice[a : a + rows, b : b + cols] = block.argmin(axis=-1)
                best[a : a + rows, b : b + cols] = block.min(axis=-1)
        found = np.take_along_axis(np.moveaxis(nearest, d + 1, -1), choice.reshape(lines.shape)[None], axis=-1)
        nearest = np.moveaxis(found, -1, d + 1)
        dist = np.moveaxis(best.reshape(lines.shape), -1, d)
    return nearest


def fit_grid(data: Dataset, sweep: SweepConfig, resolution) -> GridLookupModel:
    """Bin noisy K=1 measurements by relative position into a lookup grid
    over the volume ``sweep`` explored: ``resolution`` (n, e) cells across
    its lateral extent (centred on its legs when ``resolution[0]`` is the leg
    count), and one vertical cell per altitude plane, so the altitudes must
    be evenly spaced.

    Each cell stores the mean of its samples; each empty cell takes the
    values of the nearest filled cell in physical distance (so anisotropic
    cells are handled correctly).  :func:`_nearest_filled` finds it one axis
    at a time (n, then e, then d): along each axis a cell takes the nearest
    of the candidates the earlier passes left on its line, the lowest line
    index on a tie.  The chosen cells are, index for index, those of
    ``scipy.ndimage.distance_transform_edt(~filled, sampling=cell,
    return_indices=True)``.
    """
    if len(data) == 0:
        raise ValueError("cannot fit a grid on an empty dataset")
    if data.k != 1:
        raise ValueError(f"grid fitting needs K=1 records, got K={data.k}")
    if not evenly_spaced(sweep.altitudes):
        raise ValueError(f"grid fitting needs evenly spaced altitudes, got {list(sweep.altitudes)}")

    half = sweep.lateral_extent / 2.0
    alts = sorted(set(sweep.altitudes))
    # With one plane there is no altitude step, so the formation spacing
    # stands in.  The fitted table does not depend on it (every record lies on
    # the plane); it only sets how far off the plane a query still reads the
    # plane's values: spacing/2 either way, zero beyond.
    step = (alts[-1] - alts[0]) / (len(alts) - 1) if len(alts) > 1 else sweep.spacing
    bounds = [(-half, half), (-half, half), (-alts[-1] - step / 2.0, -alts[0] + step / 2.0)]

    shape = (int(resolution[0]), int(resolution[1]), len(alts))
    lo, hi = np.array(bounds).T
    cell = (hi - lo) / shape
    dpos = data.states[:, 1, :3] - data.states[:, 0, :3]
    inside = ((dpos >= lo) & (dpos <= hi)).all(axis=1)
    if not inside.any():
        raise ValueError("no samples fall inside the grid bounds")
    idx = np.clip(np.floor((dpos[inside] - lo) / cell).astype(np.int64), 0, np.array(shape) - 1)
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    counts = np.bincount(flat, minlength=math.prod(shape))[:, None]
    sums = np.stack([np.bincount(flat, w, len(counts)) for w in data.measured[inside].T], axis=1)
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0).reshape(shape + (6,))
    filled = counts.reshape(shape) > 0
    if not filled.all():
        values = values[tuple(_nearest_filled(filled, cell))]

    metadata = {
        "fitted_from": data.metadata,
        "samples": int(len(data)),
        "resolution": list(shape),
    }
    return GridLookupModel(bounds, values, metadata)


_KINDS = (LinearAggModel, DeepSetModel, GridLookupModel)


def save_model(model, path) -> None:
    """Serialize a model to a versioned JSON file (bit-exact round trip), in
    the version 2 layout of the module docstring.

    The whole document is encoded first, so a value JSON cannot hold raises
    before the file is touched; the file is then replaced atomically."""
    if not isinstance(model, _KINDS):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {"format": "downwash-model", "version": MODEL_FORMAT_VERSION, "kind": model.KIND}
    if isinstance(model, GridLookupModel):
        doc.update(bounds=[list(b) for b in model.bounds], shape=list(model.values.shape), values=_encode(model.values))
    else:
        doc.update(zip(model.NETS, (_mlp_doc(net) for net in (model.encoder, model.decoder) if net)))
    doc["metadata"] = model.metadata
    write_json(path, doc)


def load_model(path):
    """Read a model file written by :func:`save_model`; a file it cannot
    read as one, JSON nested too deep to parse included, is a
    :class:`FormatError` naming it."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            return _model_from_doc(json.load(fh))
        except KeyError as exc:
            raise FormatError(f"{path}: missing key {exc}") from None
        except (AttributeError, RecursionError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: {exc}") from None


def _model_from_doc(doc: dict):
    if doc.get("format") != "downwash-model":
        raise ValueError("not a downwash model file")
    if type(doc.get("version")) is not int or doc["version"] != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model format version {doc.get('version')!r} is not {MODEL_FORMAT_VERSION};"
            " re-run 'downwash train' to rewrite the model files"
        )
    kind = doc.get("kind")
    metadata = doc.get("metadata", {})
    cls = next((cls for cls in _KINDS if cls.KIND == kind), None)
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r}")
    if cls is GridLookupModel:
        shape = _positive_ints(doc["shape"], "grid shape", 1)
        values = _decode(doc["values"], math.prod(shape)).reshape(shape)
        return GridLookupModel(_finite_bounds(doc["bounds"]), values, metadata)
    return cls(*(_mlp_from_doc(doc[key]) for key in cls.NETS), metadata)


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
