"""The unchecked layer loops against the checked entries over them."""

import numpy as np
import pytest

from cipbench.encoder import (
    backward_batch,
    backward_layers,
    forward_batch,
    forward_layers,
    init_params,
)


@pytest.mark.parametrize("dims", [(5, 3), (5, 6, 3), (5, 6, 4, 3)],
                         ids=["linear", "1-hidden", "2-hidden"])
def test_layer_loops_equal_the_checked_entries_bit_for_bit(dims):
    rng = np.random.default_rng(len(dims))
    params = init_params(dims, rng, std=0.5)
    x = rng.standard_normal((7, dims[0]))
    g = rng.standard_normal((7, dims[-1]))

    feats, cache = forward_batch(params, x)
    outputs = forward_layers(params.weights, params.biases, x)
    assert len(outputs) == len(dims) and outputs[0] is x
    assert [o.tobytes() for o in outputs] == [c.tobytes() for c in cache]
    assert outputs[-1].tobytes() == feats.tobytes()

    grads, input_grad = backward_batch(params, cache, g)
    # every gradient array is written, whatever it held
    grad_weights = [np.full_like(w, np.nan) for w in params.weights]
    grad_biases = [np.full_like(b, np.nan) for b in params.biases]
    g_before = g.copy()
    dz = backward_layers(params.weights, outputs, g, grad_weights, grad_biases)
    assert g.tobytes() == g_before.tobytes()
    assert [w.tobytes() for w in grad_weights] == [w.tobytes() for w in grads.weights]
    assert [b.tobytes() for b in grad_biases] == [b.tobytes() for b in grads.biases]
    assert dz.shape == (7, dims[1])
    assert (dz @ params.weights[0]).tobytes() == input_grad.tobytes()
