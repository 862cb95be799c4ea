"""Dense vector primitives shared by the losses, trainer and evaluation code.

All arithmetic is IEEE float64.  A feature vector is a plain 1-D numpy
array.  ``as_vector`` checks one vector's shape and finiteness and
``as_floats`` coerces a decoded JSON array; each names its input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_floats",
    "as_vector",
    "check_fields",
]

# config key of each settings field whose name differs (``lambda`` is a keyword)
KEY_OF_FIELD = {"lam": "lambda"}


def check_fields(owner, rules) -> None:
    """Raise ``ValueError("<key> must be <rule>, got <value>")`` for the first
    ``(field, ok, rule)`` of ``rules`` whose ``ok`` is false; the value is
    that field of ``owner``."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{KEY_OF_FIELD.get(name, name)} must be {rule}, "
                             f"got {getattr(owner, name)!r}")


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
    shape, or raise a one-line ValueError naming it.  A boolean element of
    a list is not a number."""
    try:
        if isinstance(x, list) and any(type(e) is bool for e in x):
            raise ValueError
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not an array of numbers") from None
