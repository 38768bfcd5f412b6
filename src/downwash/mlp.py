"""Small fully-connected network with hand-written reverse-mode gradients.

tanh on hidden layers, identity output.  Weights are stored as (fan_in,
fan_out) matrices so a batch forward is ``x @ W + b``.  The Adam optimizer
lives here too; both are deliberately dependency-free so training runs are
bit-reproducible.

An ``Mlp`` is one vector ``flat``, laid out W0, b0, W1, b1, ...: its own
(float64, all zero), or a slice of a larger vector passed to the
constructor, which is how a set network keeps its encoder and decoder in one
vector of its own.  Every buffer and gradient a network makes takes
``flat``'s dtype, so the same code runs a float64 network (prediction, the
gradient checks) and the float32 copy that a training step runs on.
``weights`` and ``biases`` are tuples of views into ``flat``, so a layer
can be written only in place (``net.weights[0][...] = w``), never swapped
for an array that ``flat`` does not hold.  :meth:`Mlp.backward` writes the
parameter gradient into one vector with the same layout, and :class:`Adam`
steps one such vector, so one update covers a whole model.

A :class:`Workspace` holds the activation and delta buffers of one network
for batches of up to a fixed number of rows; its owner (the training loop)
passes it to :meth:`Mlp.forward_cached` and :meth:`Mlp.backward`, and what
they return then lives in the workspace until the next call.  Without a
workspace every call allocates its own arrays, so nothing it returns is
shared with a later call.
"""

from __future__ import annotations

import numpy as np


def parameter_count(layer_dims) -> int:
    """The length of ``flat`` for these layer dimensions."""
    return sum(a * b + b for a, b in zip(layer_dims, layer_dims[1:]))


class Workspace:
    """Reusable buffers for one network on batches of up to ``rows`` rows:
    each layer's output, the gradient at each layer boundary (input first,
    output last) and one scratch buffer.  A batch of m rows uses the first m
    rows of each buffer."""

    def __init__(self, net: "Mlp", rows: int):
        self.dims = dims = net.layer_dims
        dtype = net.flat.dtype
        self.outputs = [np.empty(rows * d, dtype) for d in dims[1:]]
        self.deltas = [np.empty(rows * d, dtype) for d in dims]
        self.scratch = np.empty(rows * max(dims[1:]), dtype)

    def delta(self, i: int, m: int) -> np.ndarray:
        """The (m, dims[i]) buffer for d loss / d (input of layer i); the
        last one is the network output's, for the caller to fill."""
        d = self.dims[i]
        return self.deltas[i][: m * d].reshape(m, d)


def _take(buf, m: int, d: int, dtype) -> np.ndarray:
    """The first m rows of a workspace buffer as (m, d), or a new (m, d)
    array of ``dtype``."""
    return np.empty((m, d), dtype) if buf is None else buf[: m * d].reshape(m, d)


class Mlp:
    """Multilayer perceptron defined by its layer dimensions.

    ``layer_dims = [d_in, h1, ..., d_out]``; a two-entry list is a single
    affine map.  ``flat`` holds the parameters: a vector of
    :func:`parameter_count` values, float64 zeros when not given.
    """

    def __init__(self, layer_dims, flat: np.ndarray | None = None):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dimensions")
        self.layer_dims = [int(d) for d in layer_dims]
        self.flat = np.zeros(parameter_count(self.layer_dims)) if flat is None else flat
        self.weights, self.biases = self._views(self.flat)

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

    def _views(self, flat: np.ndarray):
        """(weights, biases): tuples of views of a vector laid out like ``flat``."""
        weights, biases, i = [], [], 0
        for din, dout in zip(self.layer_dims, self.layer_dims[1:]):
            weights.append(flat[i : i + din * dout].reshape(din, dout))
            biases.append(flat[i + din * dout : i + din * dout + dout])
            i += din * dout + dout
        return tuple(weights), tuple(biases)

    def forward_cached(self, x: np.ndarray, workspace: Workspace | None = None):
        """Outputs (m, d_out) of a batch x (m, d_in), and the per-layer
        activations [x, h1, ..., y] for the backward pass."""
        if x.shape[1] != self.d_in:
            raise ValueError(f"input dim {x.shape[1]} != expected {self.d_in}")
        activations = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = _take(workspace and workspace.outputs[i], len(h), w.shape[1], w.dtype)
            h = np.matmul(h, w, out=out)
            h += b
            if i != last:
                np.tanh(h, out=h)
            activations.append(h)
        return h, activations

    def backward(self, activations, dy: np.ndarray, workspace: Workspace | None = None, out=None):
        """Backpropagate ``dy`` (m, d_out), the gradient w.r.t. the batch output
        of forward_cached.

        Returns (parameter gradient, layer-0 delta): the gradient is ``out``,
        a vector laid out like ``flat``, of its dtype, that is newly allocated
        when not given; the delta (m, dims[1]) is d loss / d (layer 0's ``x @ W0 + b0``).
        The input gradient ``delta @ W0.T`` is left to a caller that needs it.
        """
        grad = np.empty_like(self.flat) if out is None else out
        grads_w, grads_b = self._views(grad)
        m = len(dy)
        delta = dy
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=grads_w[i])
            np.sum(delta, axis=0, out=grads_b[i])
            if i == 0:
                break
            w = self.weights[i]
            delta = np.matmul(delta, w.T, out=_take(workspace and workspace.deltas[i], m, w.shape[0], w.dtype))
            # activations[i] is tanh(pre); d tanh = 1 - tanh^2.
            a = activations[i]
            slope = _take(workspace and workspace.scratch, m, a.shape[1], a.dtype)
            np.multiply(a, a, out=slope)
            np.subtract(1.0, slope, out=slope)
            delta *= slope  # delta is this call's own buffer here
        return grad, delta


def weighted_mse(pred: np.ndarray, target: np.ndarray, axis_weights: np.ndarray):
    """Mean over samples and axes of ``w_a * (pred - target)^2`` for (m, d)
    batches.

    Returns (loss, d loss / d pred).
    """
    diff = pred - target
    n = diff.shape[0] * diff.shape[1]
    loss = float(np.sum(axis_weights * diff * diff) / n)
    dpred = 2.0 * axis_weights * diff / n
    return loss, dpred


class Adam:
    """Standard Adam with bias correction on one parameter vector, such as a
    model's ``flat``.

    The moments ``m`` and ``v`` and two scratch vectors are allocated once,
    in ``param``'s dtype; ``step`` updates in place, one ufunc at a time, and
    takes a gradient of any float dtype.
    """

    def __init__(self, param: np.ndarray, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.scratch = (np.empty_like(param), np.empty_like(param))
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """Update ``param`` in place from ``grad``, laid out alike."""
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        m, v, (s, u) = self.m, self.v, self.scratch
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), one ufunc at a time
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s)
        s *= grad
        v += s
        np.divide(v, b2t, out=s)
        np.sqrt(s, out=s)
        s += self.epsilon
        np.divide(m, b1t, out=u)
        u *= self.learning_rate
        u /= s
        param -= u
