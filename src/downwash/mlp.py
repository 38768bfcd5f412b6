"""Small fully-connected network with hand-written reverse-mode gradients.

tanh on hidden layers, identity output.  Weights are stored as (fan_in,
fan_out) matrices so a batch forward is ``x @ W + b``.  The Adam optimizer
lives here too; both are deliberately dependency-free so training runs are
bit-reproducible.

Parameters are flat: an ``Mlp`` keeps all of them in one float64 vector
``flat``, laid out W0, b0, W1, b1, ..., and every weight and bias is a view
into it.  ``weights`` and ``biases`` are tuples of those views, so a layer
can be written only in place (``net.weights[0][...] = w``), never swapped
for an array that ``flat`` does not hold.  A model that owns several
networks moves them into one vector of its own with :meth:`Mlp.rebind`.
Gradients use the same layout, so one Adam update covers a whole model.

A :class:`Workspace` holds the activation and delta buffers of one network
for batches of up to a fixed number of rows; its owner (the training loop)
passes it to :meth:`Mlp.forward_cached` and :meth:`Mlp.backward`, and what
they return then lives in the workspace until the next call.  Without a
workspace every call allocates its own arrays, so nothing it returns is
shared with a later call.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Reusable buffers for one network on batches of up to ``rows`` rows:
    each layer's output, the gradient at each layer boundary (input first,
    output last) and one scratch buffer.  A batch of m rows uses the first m
    rows of each buffer."""

    def __init__(self, net: "Mlp", rows: int):
        self.dims = dims = net.layer_dims
        self.outputs = [np.empty(rows * d) for d in dims[1:]]
        self.deltas = [np.empty(rows * d) for d in dims]
        self.scratch = np.empty(rows * max(dims[1:]))

    def delta(self, i: int, m: int) -> np.ndarray:
        """The (m, dims[i]) buffer for d loss / d (input of layer i); the
        last one is the network output's, for the caller to fill."""
        return _take(self.deltas[i], m, self.dims[i])


def _take(buf, m: int, d: int) -> np.ndarray:
    """The first m rows of a workspace buffer as (m, d), or a new array."""
    return np.empty((m, d)) if buf is None else buf[: m * d].reshape(m, d)


class Mlp:
    """Multilayer perceptron defined by its layer dimensions.

    ``layer_dims = [d_in, h1, ..., d_out]``; a two-entry list is a single
    affine map.  Parameters are float64 throughout.
    """

    def __init__(self, layer_dims):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dimensions")
        self.layer_dims = [int(d) for d in layer_dims]
        self.flat = np.zeros(sum(a * b + b for a, b in zip(self.layer_dims, self.layer_dims[1:])))
        self.weights, self.biases = self._weights_and_biases(self.flat)

    @property
    def d_in(self) -> int:
        return self.layer_dims[0]

    @property
    def d_out(self) -> int:
        return self.layer_dims[-1]

    @classmethod
    def initialised(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """Uniform init scaled by 1/sqrt(fan_in) for weights and biases."""
        net = cls(layer_dims)
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return net

    def split(self, flat: np.ndarray) -> list:
        """Views [W0, b0, W1, b1, ...] of a vector laid out like ``flat``."""
        views, i = [], 0
        for din, dout in zip(self.layer_dims, self.layer_dims[1:]):
            views.append(flat[i : i + din * dout].reshape(din, dout))
            views.append(flat[i + din * dout : i + din * dout + dout])
            i += din * dout + dout
        return views

    def _weights_and_biases(self, flat: np.ndarray):
        views = self.split(flat)
        return tuple(views[0::2]), tuple(views[1::2])

    def rebind(self, flat: np.ndarray) -> None:
        """Copy the parameters into ``flat`` (same size and layout) and make
        every weight and bias a view of it from now on."""
        weights, biases = self._weights_and_biases(flat)
        for view, value in zip(weights + biases, self.weights + self.biases):
            view[...] = value
        self.flat, self.weights, self.biases = flat, weights, biases

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray, workspace: Workspace | None = None):
        """Forward pass keeping per-layer activations for the backward pass."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.d_in:
            raise ValueError(f"input dim {x.shape[1]} != expected {self.d_in}")
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = _take(workspace and workspace.outputs[i], len(h), w.shape[1])
            h = np.matmul(h, w, out=out)
            h += b
            if i != last:
                np.tanh(h, out=h)
            activations.append(h)
        y = h[0] if squeeze else h
        return y, activations

    def backward(self, activations, dy: np.ndarray, workspace: Workspace | None = None, out=None):
        """Backpropagate ``dy`` (m, d_out), the gradient w.r.t. the batch output
        of forward_cached.

        Returns (weight grads, bias grads, gradient w.r.t. the input).  The
        parameter gradients are views of ``out``, a vector laid out like
        ``flat``, newly allocated when not given.
        """
        grads_w, grads_b = self._weights_and_biases(np.empty(len(self.flat)) if out is None else out)
        m = len(dy)
        delta = dy
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i != last:
                # activations[i+1] is tanh(pre); d tanh = 1 - tanh^2.
                a = activations[i + 1]
                slope = _take(workspace and workspace.scratch, m, a.shape[1])
                np.multiply(a, a, out=slope)
                np.subtract(1.0, slope, out=slope)
                delta *= slope  # delta is this call's own buffer here
            np.matmul(activations[i].T, delta, out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            w = self.weights[i]
            delta = np.matmul(delta, w.T, out=_take(workspace and workspace.deltas[i], m, w.shape[0]))
        return grads_w, grads_b, delta

    def parameters(self) -> list:
        """Flat list of parameter arrays in a defined order (W0, b0, W1, b1, ...)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def weighted_mse(pred: np.ndarray, target: np.ndarray, axis_weights: np.ndarray):
    """Mean over samples and axes of ``w_a * (pred - target)^2``.

    Returns (loss, d loss / d pred).
    """
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    diff = pred - target
    n = diff.shape[0] * diff.shape[1]
    loss = float(np.sum(axis_weights * diff * diff) / n)
    dpred = 2.0 * axis_weights * diff / n
    return loss, dpred


class Adam:
    """Standard Adam with bias correction, one slot pair per parameter array.

    Pass a model's flat parameter vector as the only array to update the
    whole model in a few array operations.  The moments and two scratch
    arrays are allocated once; ``step`` updates in place.
    """

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params, grads) -> None:
        """Update ``params`` in place from matching ``grads``."""
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v, (s, u) in zip(params, grads, self.m, self.v, self.scratch):
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), one ufunc at a time
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            np.divide(v, b2t, out=s)
            np.sqrt(s, out=s)
            s += self.epsilon
            np.divide(m, b1t, out=u)
            u *= self.learning_rate
            u /= s
            p -= u
