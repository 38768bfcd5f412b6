import math

import numpy as np
import pytest

from downwash.mlp import Adam, Mlp, Workspace, weighted_mse


def mlp_gradients(net, inputs, targets, axis_weights=None):
    """Weighted-MSE loss and its gradient, laid out like ``net.flat``, on one
    batch, built from the same forward_cached -> weighted_mse -> backward
    chain as training."""
    if axis_weights is None:
        axis_weights = np.ones(net.d_out)
    pred, cache = net.forward_cached(inputs)
    loss, dpred = weighted_mse(pred, targets, axis_weights)
    grad, _ = net.backward(cache, dpred)
    return loss, grad


def per_array(net, flat):
    """[W0, b0, W1, b1, ...] of a vector laid out like ``net.flat``, sliced
    independently of ``Mlp``'s own views."""
    arrays, i = [], 0
    for din, dout in zip(net.layer_dims, net.layer_dims[1:]):
        arrays += [flat[i : i + din * dout].reshape(din, dout), flat[i + din * dout : i + din * dout + dout]]
        i += din * dout + dout
    return arrays


def naive_forward(net, x):
    """Independent re-implementation: per-neuron loops, no matrix ops."""
    h = list(x)
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(math.tanh(acc) if layer != last else acc)
        h = out
    return np.array(h)


def fd_gradients(loss_fn, flat, step=1e-5):
    """Central finite differences over every scalar of the parameter vector."""
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn()
        flat[i] = orig - step
        lo = loss_fn()
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_zero_weight_network_outputs_bias():
    net = Mlp([3, 5, 2])
    net.biases[-1][...] = [0.7, -1.1]
    out = net.forward_cached(np.array([[1.0, 2.0, 3.0]]))[0][0]
    np.testing.assert_array_equal(out, [0.7, -1.1])


def test_single_affine_layer_hand_computed():
    net = Mlp([2, 2])
    net.weights[0][...] = [[1.0, 2.0], [3.0, 4.0]]
    net.biases[0][...] = [0.5, -0.5]
    out = net.forward_cached(np.array([[1.0, -1.0]]))[0][0]
    # y = x @ W + b
    np.testing.assert_allclose(out, [1 * 1 + (-1) * 3 + 0.5, 1 * 2 + (-1) * 4 - 0.5])


def test_layers_are_written_in_place_only(rng):
    net = Mlp.initialised([3, 4, 2], rng)
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((3, 4))
    with pytest.raises(TypeError):
        net.biases[1] = np.zeros(2)
    net.weights[1][...] = 0.0
    net.biases[1][...] = [0.25, -2.0]
    np.testing.assert_array_equal(net.flat[-10:], [0.0] * 8 + [0.25, -2.0])
    np.testing.assert_array_equal(net.forward_cached(np.ones((1, 3)))[0][0], [0.25, -2.0])


def test_forward_matches_independent_reimplementation(rng):
    net = Mlp.initialised([4, 7, 5, 3], rng)
    for _ in range(20):
        x = rng.uniform(-2, 2, 4)
        np.testing.assert_allclose(net.forward_cached(x[None])[0][0], naive_forward(net, x), atol=1e-12)


def test_forward_rejects_dimension_mismatch(rng):
    net = Mlp.initialised([4, 3], rng)
    with pytest.raises(ValueError, match="input dim"):
        net.forward_cached(np.zeros((1, 5)))


def test_gradients_match_finite_differences(rng):
    net = Mlp.initialised([3, 8, 6, 2], rng)
    x = rng.uniform(-1, 1, (5, 3))
    t = rng.uniform(-1, 1, (5, 2))
    w = np.array([1.0, 2.5])
    _, analytic = mlp_gradients(net, x, t, w)

    def loss():
        return mlp_gradients(net, x, t, w)[0]

    numeric = fd_gradients(loss, net.flat)
    assert max_rel_error(analytic, numeric) < 1e-4


def test_zero_targets_zero_network_gives_zero_loss_and_gradients():
    net = Mlp([3, 4, 2])  # all-zero parameters -> output 0
    x = np.ones((4, 3))
    t = np.zeros((4, 2))
    loss, grad = mlp_gradients(net, x, t)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(net.flat))


def test_duplicated_sample_gradient_equals_single(rng):
    net = Mlp.initialised([3, 6, 2], rng)
    x = rng.uniform(-1, 1, 3)
    t = rng.uniform(-1, 1, 2)
    loss1, grad1 = mlp_gradients(net, x[None, :], t[None, :])
    loss2, grad2 = mlp_gradients(net, np.stack([x, x]), np.stack([t, t]))
    assert loss1 == pytest.approx(loss2, rel=1e-15)
    np.testing.assert_allclose(grad1, grad2, rtol=1e-14, atol=1e-16)


def test_weighted_mse_weights_scale_axes():
    pred = np.array([[1.0, 1.0]])
    target = np.zeros((1, 2))
    loss, dpred = weighted_mse(pred, target, np.array([1.0, 3.0]))
    assert loss == pytest.approx((1.0 + 3.0) / 2)
    np.testing.assert_allclose(dpred, [[1.0, 3.0]])


def test_adam_zero_learning_rate_keeps_parameters(rng):
    net = Mlp.initialised([3, 4, 2], rng)
    before = net.flat.copy()
    opt = Adam(net.flat, learning_rate=0.0)
    _, grad = mlp_gradients(net, rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (6, 2)))
    opt.step(net.flat, grad)
    np.testing.assert_array_equal(before, net.flat)


def test_adam_reduces_loss_on_small_problem(rng):
    net = Mlp.initialised([2, 16, 1], rng)
    x = rng.uniform(-1, 1, (64, 2))
    t = (x[:, :1] * x[:, 1:]).reshape(-1, 1)
    opt = Adam(net.flat, learning_rate=1e-2)
    first = mlp_gradients(net, x, t)[0]
    for _ in range(300):
        loss, grad = mlp_gradients(net, x, t)
        opt.step(net.flat, grad)
    assert loss < 0.1 * first


def allocating_forward_backward(net, x, dy):
    """The plain expression form of forward_cached and backward: a new array
    per operation, no workspace and no in-place ufunc.  Returns the
    activations, the per-array gradients [W0, b0, W1, b1, ...] and layer 0's
    delta."""
    activations = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
        activations.append(h)
    grads, delta = [], dy
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (1.0 - activations[i + 1] ** 2)
        grads[:0] = [activations[i].T @ delta, delta.sum(axis=0)]
        if i:
            delta = delta @ net.weights[i].T
    return activations, grads, delta


def test_workspace_forward_backward_are_bitwise_the_allocating_form(rng):
    net = Mlp.initialised([6, 64, 64, 64], rng)
    workspace = Workspace(net, 768)
    for m in (768, 5, 0, 300):
        x = rng.uniform(-1, 1, (m, 6))
        dy = rng.uniform(-1, 1, (m, 64))
        acts_ref, grads_ref, delta_ref = allocating_forward_backward(net, x, dy)
        for ws in (None, workspace):
            _, acts = net.forward_cached(x, ws)
            grad, delta = net.backward(acts, dy, ws)
            for a, b in zip(acts, acts_ref):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(per_array(net, grad), grads_ref):
                assert a.tobytes() == b.tobytes()
            assert delta.tobytes() == delta_ref.tobytes()


def test_parameters_and_gradients_are_views_of_one_vector(rng):
    net = Mlp.initialised([3, 5, 2], rng)
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair]
    assert all(np.shares_memory(a, net.flat) for a in arrays)
    np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), net.flat)
    _, acts = net.forward_cached(rng.uniform(-1, 1, (4, 3)))
    out = np.empty_like(net.flat)
    assert net.backward(acts, rng.uniform(-1, 1, (4, 2)), out=out)[0] is out
    again = Mlp([3, 5, 2])
    again.flat[...] = net.flat
    assert again.flat.tobytes() == net.flat.tobytes() and not np.shares_memory(again.flat, net.flat)
    # a network on a slice of a larger vector reads and writes that slice
    outer = np.zeros(len(net.flat) + 4)
    inner = Mlp([3, 5, 2], outer[2:-2])
    inner.biases[-1][...] = [1.5, -2.5]
    assert outer[-4:].tolist() == [1.5, -2.5, 0.0, 0.0]


class AllocatingAdam:
    """Adam as one expression per parameter array, each array with moments
    of its own: the form the in-place update on one vector keeps."""

    def __init__(self, params, learning_rate):
        self.learning_rate, self.beta1, self.beta2, self.epsilon = learning_rate, 0.9, 0.999, 1e-8
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)


def test_adam_on_the_flat_vector_is_bitwise_the_per_array_update(rng):
    net = Mlp.initialised([3, 8, 2], rng)
    ref = Mlp([3, 8, 2])
    ref.flat[...] = net.flat
    opt = Adam(net.flat, learning_rate=3e-2)
    assert opt.m.shape == opt.v.shape == net.flat.shape
    ref_params = per_array(ref, ref.flat)
    ref_opt = AllocatingAdam(ref_params, learning_rate=3e-2)
    x = rng.uniform(-1, 1, (16, 3))
    t = rng.uniform(-1, 1, (16, 2))
    for _ in range(25):
        out = np.empty_like(net.flat)
        pred, acts = net.forward_cached(x)
        net.backward(acts, weighted_mse(pred, t, np.ones(2))[1], out=out)
        opt.step(net.flat, out)
        pred, _ = ref.forward_cached(x)
        _, ref_grads, _ = allocating_forward_backward(ref, x, weighted_mse(pred, t, np.ones(2))[1])
        ref_opt.step(ref_params, ref_grads)
    assert net.flat.tobytes() == ref.flat.tobytes()
