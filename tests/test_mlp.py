import math

import numpy as np
import pytest

from downwash.mlp import Adam, Mlp, weighted_mse


def mlp_gradients(net, inputs, targets, axis_weights=None):
    """Weighted-MSE loss and its weight and bias gradients on one batch, built
    from the same forward_cached -> weighted_mse -> backward chain as training."""
    if axis_weights is None:
        axis_weights = np.ones(net.d_out)
    pred, cache = net.forward_cached(inputs)
    loss, dpred = weighted_mse(pred, targets, axis_weights)
    grads_w, grads_b, _ = net.backward(cache, dpred)
    return loss, grads_w, grads_b


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


def fd_gradients(loss_fn, params, step=1e-5):
    """Central finite differences over every scalar parameter."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_zero_weight_network_outputs_bias():
    net = Mlp([3, 5, 2])
    net.biases[-1] = np.array([0.7, -1.1])
    out = net.forward(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, [0.7, -1.1])


def test_single_affine_layer_hand_computed():
    net = Mlp([2, 2])
    net.weights[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
    net.biases[0] = np.array([0.5, -0.5])
    out = net.forward(np.array([1.0, -1.0]))
    # y = x @ W + b
    np.testing.assert_allclose(out, [1 * 1 + (-1) * 3 + 0.5, 1 * 2 + (-1) * 4 - 0.5])


def test_forward_matches_independent_reimplementation(rng):
    net = Mlp.initialised([4, 7, 5, 3], rng)
    for _ in range(20):
        x = rng.uniform(-2, 2, 4)
        np.testing.assert_allclose(net.forward(x), naive_forward(net, x), atol=1e-12)


def test_forward_rejects_dimension_mismatch(rng):
    net = Mlp.initialised([4, 3], rng)
    with pytest.raises(ValueError, match="input dim"):
        net.forward(np.zeros(5))


def test_gradients_match_finite_differences(rng):
    net = Mlp.initialised([3, 8, 6, 2], rng)
    x = rng.uniform(-1, 1, (5, 3))
    t = rng.uniform(-1, 1, (5, 2))
    w = np.array([1.0, 2.5])
    _, gw, gb = mlp_gradients(net, x, t, w)
    analytic = [g for pair in zip(gw, gb) for g in pair]

    def loss():
        return mlp_gradients(net, x, t, w)[0]

    numeric = fd_gradients(loss, net.parameters())
    assert max_rel_error(analytic, numeric) < 1e-4


def test_zero_targets_zero_network_gives_zero_loss_and_gradients():
    net = Mlp([3, 4, 2])  # all-zero parameters -> output 0
    x = np.ones((4, 3))
    t = np.zeros((4, 2))
    loss, gw, gb = mlp_gradients(net, x, t)
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in gw + gb)


def test_duplicated_sample_gradient_equals_single(rng):
    net = Mlp.initialised([3, 6, 2], rng)
    x = rng.uniform(-1, 1, 3)
    t = rng.uniform(-1, 1, 2)
    loss1, gw1, gb1 = mlp_gradients(net, x[None, :], t[None, :])
    loss2, gw2, gb2 = mlp_gradients(net, np.stack([x, x]), np.stack([t, t]))
    assert loss1 == pytest.approx(loss2, rel=1e-15)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-16)


def test_weighted_mse_weights_scale_axes():
    pred = np.array([[1.0, 1.0]])
    target = np.zeros((1, 2))
    loss, dpred = weighted_mse(pred, target, np.array([1.0, 3.0]))
    assert loss == pytest.approx((1.0 + 3.0) / 2)
    np.testing.assert_allclose(dpred, [[1.0, 3.0]])


def test_adam_zero_learning_rate_keeps_parameters(rng):
    net = Mlp.initialised([3, 4, 2], rng)
    before = [p.copy() for p in net.parameters()]
    opt = Adam(net.parameters(), learning_rate=0.0)
    _, gw, gb = mlp_gradients(net, rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (6, 2)))
    opt.step(net.parameters(), [g for pair in zip(gw, gb) for g in pair])
    for a, b in zip(before, net.parameters()):
        np.testing.assert_array_equal(a, b)


def test_adam_reduces_loss_on_small_problem(rng):
    net = Mlp.initialised([2, 16, 1], rng)
    x = rng.uniform(-1, 1, (64, 2))
    t = (x[:, :1] * x[:, 1:]).reshape(-1, 1)
    opt = Adam(net.parameters(), learning_rate=1e-2)
    first = mlp_gradients(net, x, t)[0]
    for _ in range(300):
        loss, gw, gb = mlp_gradients(net, x, t)
        opt.step(net.parameters(), [g for pair in zip(gw, gb) for g in pair])
    assert loss < 0.1 * first
