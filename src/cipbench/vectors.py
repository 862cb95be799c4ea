"""Settings-field checks and the package's CPU count.

``check_fields`` checks the settings fields of ``data``, ``losses`` and
``trainer``; ``KEY_OF_FIELD`` names a field's config key for them and for
``config``.  ``CPUS`` is the one count of the CPUs this process may use.
"""

from __future__ import annotations

import os

__all__ = ["CPUS", "check_fields"]

# the CPUs this process may use, read once: rank's and evaluate_run's
# threads and write_csv's forked workers each take one
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

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
