import numpy as np
import pytest

from cipbench.encoder import (
    MlpParams,
    backward_batch,
    check_layer_dims,
    forward_batch,
    init_params,
)

from oracles import central_diff, rel_err


def identity_net(dim=3):
    return MlpParams([np.eye(dim)], [np.zeros(dim)])


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_layer_dims_check_rejects_bad_dims():
    with pytest.raises(ValueError, match="positive"):
        check_layer_dims((4, 0, 2))
    with pytest.raises(ValueError, match="at least"):
        check_layer_dims((3,))
    with pytest.raises(ValueError, match="positive"):
        init_params((4, 0, 2))


def test_layer_dims_are_the_weight_shapes():
    params = init_params([5, 4, 3, 2])
    assert params.layer_dims == check_layer_dims([5, 4, 3, 2]) == (5, 4, 3, 2)
    assert [w.shape for w in params.weights] == [(4, 5), (3, 4), (2, 3)]


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_identity_layer_passes_input_through():
    params = identity_net(3)
    x = np.array([0.5, -2.0, 3.0])
    out, _ = forward_batch(params, x[None])
    np.testing.assert_array_equal(out, [x])


def test_relu_clamps_negative():
    # the hidden relu clamps the negative pre-activation -1 to 0; the linear
    # head passes its negative output -2 through
    params = MlpParams([np.eye(2), np.diag([1.0, -1.0])], [np.zeros(2), np.zeros(2)])
    out, cache = forward_batch(params, np.array([[-1.0, 2.0]]))
    np.testing.assert_array_equal(cache[1], [[0.0, 2.0]])
    np.testing.assert_array_equal(out, [[0.0, -2.0]])


def test_two_layer_hand_computed():
    # relu hidden layer then linear head, checked against hand arithmetic:
    # z1 = W1 x + b1 = (4, 6); relu keeps it; out = W2 z1 = (4, 10)
    params = MlpParams(
        [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, 0.0], [1.0, 1.0]])],
        [np.array([1.0, -1.0]), np.zeros(2)],
    )
    out, cache = forward_batch(params, np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, [[4.0, 10.0]], atol=1e-15)
    np.testing.assert_allclose(cache[1][0], [4.0, 6.0], atol=1e-15)


def test_forward_rejects_wrong_dim():
    params = identity_net(3)
    with pytest.raises(ValueError, match="inputs must be"):
        forward_batch(params, np.ones((1, 4)))


def test_forward_deterministic():
    params = init_params((4, 8, 3), rng=0)
    x = np.linspace(-1, 1, 4)[None]
    a, _ = forward_batch(params, x)
    b, _ = forward_batch(params, x)
    np.testing.assert_array_equal(a, b)


def test_forward_batch_matches_single():
    params = init_params((5, 7, 3), rng=1, std=0.5)
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((6, 5))
    batch_out, _ = forward_batch(params, xs)
    for i in range(6):
        single, _ = forward_batch(params, xs[i:i + 1])
        assert rel_err(batch_out[i], single[0]) < 1e-9


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_zero_grad_out():
    params = init_params((3, 4, 2), rng=3, std=0.5)
    _, cache = forward_batch(params, np.ones((1, 3)))
    grads, gin = backward_batch(params, cache, np.zeros((1, 2)))
    assert all(np.all(w == 0) for w in grads.weights)
    assert all(np.all(b == 0) for b in grads.biases)
    np.testing.assert_array_equal(gin, np.zeros((1, 3)))


def test_backward_linear_layer_outer_product():
    params = identity_net(2)
    x = np.array([2.0, -1.0])
    g = np.array([0.5, 3.0])
    _, cache = forward_batch(params, x[None])
    grads, _ = backward_batch(params, cache, g[None])
    np.testing.assert_allclose(grads.weights[0], np.outer(g, x), atol=1e-15)
    np.testing.assert_allclose(grads.biases[0], g, atol=1e-15)


def test_backward_three_layer_finite_differences():
    dims = (4, 6, 5, 3)
    rng = np.random.default_rng(4)
    params = init_params(dims, rng=rng, std=0.7)
    x = rng.standard_normal(4)
    g = rng.standard_normal(3)
    _, cache = forward_batch(params, x[None])
    grads, gin = backward_batch(params, cache, g[None])

    def scalar_at(params2, x2):
        out, _ = forward_batch(params2, x2[None])
        return float(np.dot(g, out[0]))

    fd_in = central_diff(lambda xv: scalar_at(params, xv), x)
    assert rel_err(gin[0], fd_in) < 1e-6
    for l in range(3):
        def value_w(wl, layer=l):
            ws = [w.copy() for w in params.weights]
            ws[layer] = wl
            return scalar_at(MlpParams(ws, params.biases), x)

        def value_b(bl, layer=l):
            bs = [b.copy() for b in params.biases]
            bs[layer] = bl
            return scalar_at(MlpParams(params.weights, bs), x)

        assert rel_err(grads.weights[l], central_diff(value_w, params.weights[l])) < 1e-6
        assert rel_err(grads.biases[l], central_diff(value_b, params.biases[l])) < 1e-6


def test_backward_batch_sums_per_sample():
    params = init_params((3, 5, 2), rng=5, std=0.5)
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((4, 3))
    gs = rng.standard_normal((4, 2))
    _, cache = forward_batch(params, xs)
    grads, gin = backward_batch(params, cache, gs)
    acc_w = [np.zeros_like(w) for w in params.weights]
    for i in range(4):
        _, ci = forward_batch(params, xs[i:i + 1])
        gi, gini = backward_batch(params, ci, gs[i:i + 1])
        for a, g in zip(acc_w, gi.weights):
            a += g
        assert rel_err(gin[i], gini[0]) < 1e-9
    for a, g in zip(acc_w, grads.weights):
        assert rel_err(g, a) < 1e-9


def test_backward_cache_mismatch_rejected():
    params_a = init_params((3, 4, 2), rng=7)
    params_b = init_params((3, 5, 2), rng=8)
    _, cache = forward_batch(params_a, np.ones((1, 3)))
    with pytest.raises(ValueError, match="cache"):
        backward_batch(params_b, cache, np.zeros((1, 2)))


def test_backward_grad_shape_mismatch_rejected():
    params = identity_net(2)
    _, cache = forward_batch(params, np.ones((1, 2)))
    with pytest.raises(ValueError, match="grad_out"):
        backward_batch(params, cache, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_params_seeded_and_scaled():
    a = init_params((10, 20, 5), rng=42, std=0.01)
    b = init_params((10, 20, 5), rng=42, std=0.01)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert all(np.all(bv == 0) for bv in a.biases)
    flat = np.concatenate([w.ravel() for w in a.weights])
    assert 0.005 < flat.std() < 0.02
