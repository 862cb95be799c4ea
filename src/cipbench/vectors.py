"""Settings-field checks and one vector check.

``check_fields`` checks the settings fields of ``data``, ``losses`` and
``trainer``; ``KEY_OF_FIELD`` names a field's config key for them and for
``config``.  ``as_vector`` checks one float64 vector's shape and finiteness
and names its input, for ``losses.normalized_weight_gradient``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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
