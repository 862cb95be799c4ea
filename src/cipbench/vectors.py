"""Settings-field checks.

``check_fields`` checks the settings fields of ``data``, ``losses`` and
``trainer``; ``KEY_OF_FIELD`` names a field's config key for them and for
``config``.
"""

from __future__ import annotations

__all__ = ["check_fields"]

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
