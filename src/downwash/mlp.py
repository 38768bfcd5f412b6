"""Small fully-connected network with hand-written reverse-mode gradients.

tanh on hidden layers, identity output.  Weights are stored as (fan_in,
fan_out) matrices so a batch forward is ``x @ W + b``.  The Adam optimizer
lives here too; both are deliberately dependency-free so training runs are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Multilayer perceptron defined by its layer dimensions.

    ``layer_dims = [d_in, h1, ..., d_out]``; a two-entry list is a single
    affine map.  Parameters are float64 throughout.
    """

    def __init__(self, layer_dims, weights=None, biases=None):
        if len(layer_dims) < 2:
            raise ValueError("need at least input and output dimensions")
        self.layer_dims = [int(d) for d in layer_dims]
        if weights is None:
            self.weights = [np.zeros((a, b)) for a, b in zip(self.layer_dims, self.layer_dims[1:])]
            self.biases = [np.zeros(b) for b in self.layer_dims[1:]]
        else:
            self.weights = [np.asarray(w, dtype=float) for w in weights]
            self.biases = [np.asarray(b, dtype=float) for b in biases]
            for w, b, (din, dout) in zip(self.weights, self.biases, zip(self.layer_dims, self.layer_dims[1:])):
                if w.shape != (din, dout) or b.shape != (dout,):
                    raise ValueError(f"parameter shapes do not chain with dims {self.layer_dims}")

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
        for i, (din, dout) in enumerate(zip(net.layer_dims, net.layer_dims[1:])):
            bound = 1.0 / np.sqrt(din)
            net.weights[i] = rng.uniform(-bound, bound, size=(din, dout))
            net.biases[i] = rng.uniform(-bound, bound, size=dout)
        return net

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray):
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
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
            activations.append(h)
        y = h[0] if squeeze else h
        return y, activations

    def backward(self, activations, dy: np.ndarray):
        """Backpropagate ``dy`` (m, d_out), the gradient w.r.t. the batch output
        of forward_cached.

        Returns (weight grads, bias grads, gradient w.r.t. the input).
        """
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = dy
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i != last:
                # activations[i+1] is tanh(pre); d tanh = 1 - tanh^2.
                delta = delta * (1.0 - activations[i + 1] ** 2)
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
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
    """Standard Adam with bias correction, one slot pair per parameter array."""

    def __init__(self, params, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads) -> None:
        """Update ``params`` in place from matching ``grads``."""
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)
