"""A small MLP embedding network with exact manual forward/backward.

No autodiff: the backward pass is the hand-written chain rule, which keeps
the whole training pipeline (losses and network alike) in closed form and
makes finite-difference verification straightforward.  The encoder only
stands in for a backbone, so its activations are fixed: relu hidden layers
and a linear embedding layer, whose output may occupy every orthant.  Its
arrays are its layout: layer widths are read from the weight shapes.

``forward_layers`` and ``backward_layers`` are the layer loops over the
``(weights, biases)`` lists, one each way, and run no checks;
``trainer.train`` calls them on every batch.  ``forward_batch`` and
``backward_batch`` are the checked entries over them, as
``losses.loss_report`` is for the loss terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpParams",
    "backward_batch",
    "backward_layers",
    "check_layer_dims",
    "forward_batch",
    "forward_layers",
    "init_params",
]


def check_layer_dims(dims) -> tuple[int, ...]:
    """Layer widths: input D -> relu hidden... -> linear embedding n."""
    dims = tuple(dims)
    if len(dims) < 2:
        raise ValueError("need at least input and embedding dims")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be positive: {dims}")
    return dims


@dataclass
class MlpParams:
    weights: list[np.ndarray]  # layer l: (dims[l+1], dims[l])
    biases: list[np.ndarray]  # layer l: (dims[l+1],)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))


def init_params(layer_dims, rng=None, std: float = 0.01) -> MlpParams:
    """Zero-mean Gaussian weights (configurable std), zero biases."""
    dims = check_layer_dims(layer_dims)
    rng = np.random.default_rng(rng)
    weights = [rng.normal(0.0, std, size=shape) for shape in zip(dims[1:], dims[:-1])]
    return MlpParams(weights, [np.zeros(d) for d in dims[1:]])


def forward_layers(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """The outputs of every layer, ``[x, h_1, ..., embeddings]``, for (M, D)
    float64 inputs ``x``.  Runs no checks."""
    outputs = [x]
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w.T
        x += b
        if l != last:
            np.maximum(x, 0.0, out=x)
        outputs.append(x)
    return outputs


def backward_layers(weights, outputs: list[np.ndarray], g: np.ndarray, grad_weights,
                    grad_biases) -> np.ndarray:
    """Write the gradients of <g, embeddings> into the arrays of
    ``grad_weights`` and ``grad_biases``; return the layer-0 pre-activation
    gradient ``dz``, whose product ``dz @ weights[0]`` is the input gradient.

    ``outputs`` is ``forward_layers``' list and ``g`` is (M, n).  Runs no
    checks, and never writes into ``g``.
    """
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(g.T, outputs[l], out=grad_weights[l])
        np.add.reduce(g, axis=0, out=grad_biases[l])
        if l:
            g = g @ weights[l]
            g *= outputs[l] > 0.0  # relu(z) > 0 exactly where z > 0
    return g


def forward_batch(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map (M, D) inputs to (M, n) embeddings.  Also returns what backward
    needs, the outputs of every layer: ``[inputs, h_1, ..., embeddings]``."""
    x = np.asarray(inputs, dtype=np.float64)
    dim = params.layer_dims[0]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"inputs must be (M, {dim}), got shape {x.shape}")
    outputs = forward_layers(params.weights, params.biases, x)
    return outputs[-1], outputs


def backward_batch(params: MlpParams, outputs: list[np.ndarray],
                   grad_out: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of <grad_out, forward_batch(inputs)> w.r.t. params and inputs.

    ``outputs`` is forward_batch's cache and ``grad_out`` is (M, n), one
    upstream gradient row per cached sample.  The parameter gradients come
    back as a fresh ``MlpParams``.
    """
    widths = [o.shape[1:] for o in outputs]
    if widths != [(d,) for d in params.layer_dims]:
        raise ValueError(f"cache widths {widths} do not match layer dims {params.layer_dims}")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != outputs[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} does not match cached forward")
    grads = MlpParams([np.empty_like(w) for w in params.weights],
                      [np.empty_like(b) for b in params.biases])
    dz = backward_layers(params.weights, outputs, g, grads.weights, grads.biases)
    return grads, dz @ params.weights[0]
