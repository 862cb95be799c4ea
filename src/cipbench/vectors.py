"""Dense vector primitives shared by the losses, trainer and evaluation code.

All arithmetic is IEEE float64.  A feature vector is a plain 1-D numpy
array; ``as_vector`` is the single validation choke point, so downstream
code can assume finite, correctly shaped input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeDescriptor",
    "as_floats",
    "as_vector",
    "mean_pool",
]


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array or raise ValueError."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite components")
    return v


def as_floats(x, name: str) -> np.ndarray:
    """Coerce ``x``, such as a decoded JSON entry, to a float64 array of any
    shape, or raise a one-line ValueError naming it."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not an array of numbers") from None


@dataclass(frozen=True)
class ShapeDescriptor:
    """Mean of an object's per-view embeddings; the unit ranked at retrieval."""

    components: np.ndarray
    source_view_count: int


def mean_pool(views) -> ShapeDescriptor:
    """Component-wise mean of a non-empty list of equal-dimension view features.

    No library code calls this any more: ``retrieval.pool_descriptors``
    pools every object in one pass with the same bits.  It stays public,
    and importable from ``retrieval``, because the benchmark's traced run
    wraps ``retrieval.mean_pool`` by name.
    """
    if len(views) == 0:
        raise ValueError("mean_pool needs at least one view")
    rows = [as_vector(v, f"views[{i}]") for i, v in enumerate(views)]
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise ValueError(f"views have mixed dimensions: {sorted(dims)}")
    mat = np.stack(rows)
    return ShapeDescriptor(mat.mean(axis=0), mat.shape[0])
