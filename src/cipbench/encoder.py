"""A small MLP embedding network with exact manual forward/backward.

No autodiff: the backward pass is the hand-written chain rule, which keeps
the whole training pipeline (losses and network alike) in closed form and
makes finite-difference verification straightforward.  The encoder only
stands in for a backbone, so its activations are fixed: relu hidden layers
and a linear embedding layer, whose output may occupy every orthant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpCache",
    "MlpGrads",
    "MlpParams",
    "MlpSpec",
    "backward_batch",
    "forward_batch",
    "init_params",
]


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths: input D -> relu hidden... -> linear embedding n."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("need at least input and embedding dims")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer dims must be positive: {self.layer_dims}")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def embedding_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class MlpParams:
    spec: MlpSpec
    weights: list[np.ndarray]  # layer l: (dims[l+1], dims[l])
    biases: list[np.ndarray]  # layer l: (dims[l+1],)


@dataclass
class MlpCache:
    """Activations remembered by a forward pass, consumed by backward."""

    inputs: np.ndarray  # (M, D)
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]  # post-activation per layer; last is the embedding


@dataclass
class MlpGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_params(spec: MlpSpec, rng=None, std: float = 0.01) -> MlpParams:
    """Zero-mean Gaussian weights (configurable std), zero biases."""
    rng = np.random.default_rng(rng)
    weights = [
        rng.normal(0.0, std, size=(spec.layer_dims[l + 1], spec.layer_dims[l]))
        for l in range(spec.num_layers)
    ]
    biases = [np.zeros(spec.layer_dims[l + 1]) for l in range(spec.num_layers)]
    return MlpParams(spec, weights, biases)


def forward_batch(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Map (M, D) inputs to (M, n) embeddings, caching what backward needs."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"inputs must be (M, {params.spec.input_dim}), got shape {x.shape}"
        )
    pre, post = [], []
    h = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        h = z if l == params.spec.num_layers - 1 else np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
    return post[-1], MlpCache(x, pre, post)


def _check_cache(params: MlpParams, cache: MlpCache):
    if len(cache.pre_activations) != params.spec.num_layers:
        raise ValueError("cache does not match parameters (layer count differs)")
    for l, z in enumerate(cache.pre_activations):
        if z.ndim != 2 or z.shape[1] != params.spec.layer_dims[l + 1]:
            raise ValueError(f"cache layer {l} has shape {z.shape}, spec expects width {params.spec.layer_dims[l + 1]}")
    if cache.inputs.shape[1] != params.spec.input_dim:
        raise ValueError("cached inputs do not match the spec input dim")


def backward_batch(
    params: MlpParams, cache: MlpCache, grad_out: np.ndarray
) -> tuple[MlpGrads, np.ndarray]:
    """Exact gradients of <grad_out, forward_batch(inputs)> w.r.t. params and inputs.

    ``grad_out`` is (M, n), one upstream gradient row per cached sample.
    """
    _check_cache(params, cache)
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.pre_activations[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} does not match cached forward")
    weights, biases = [], []
    last = params.spec.num_layers - 1
    for l in range(last, -1, -1):
        dz = g if l == last else g * (cache.pre_activations[l] > 0.0)
        below = cache.activations[l - 1] if l > 0 else cache.inputs
        weights.insert(0, dz.T @ below)
        biases.insert(0, dz.sum(axis=0))
        g = dz @ params.weights[l]
    return MlpGrads(weights, biases), g

