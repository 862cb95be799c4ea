"""Settings-field checks and the package's one fan-out.

``fits`` is the one type rule of a settings value: what an ``int``,
``float``, ``bool``, ``str`` or ``tuple[int, ...]`` annotation takes (a
bool is no number, and no number is a bool).  ``check_fields`` checks the
settings fields of ``data``, ``losses`` and ``trainer`` by it, then a float
field's finiteness, then the dataclass's range rules; ``data``'s sidecar
reader and ``retrieval``'s metric cutoffs use it too.  ``KEY_OF_FIELD`` names a
field's config key for them and for ``config``.

This is the only module that starts a thread or a process.
``share_blocks`` runs the row blocks of ``retrieval.rank`` and
``evaluate_run`` on up to ``_WORKERS`` threads, one per CPU this process
may use, and joins every thread before it returns.  ``forked`` runs the
later row spans of ``data.write_csv`` on one forked worker each, which
streams its bytes back through a pipe.  A block or a span is the whole of
what its body gets: any array it needs it allocates itself.  It forks only
while no other Python thread is alive, since a fork copies only the calling
thread: that is why ``share_blocks`` joins before returning.
``one_blas_thread`` holds the OpenBLAS bundled with numpy at one thread
while ``rank``'s blocks run, so its pool does not contend with them.
"""

from __future__ import annotations

import ctypes
import gc
import math
import numbers
import os
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

__all__ = ["check_fields", "fits", "fork_workers", "forked", "one_blas_thread", "share_blocks"]

# threads or processes that share one call's work: one per CPU this
# process may use, read once
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# config key of each settings field whose name differs (``lambda`` is a keyword)
KEY_OF_FIELD = {"lam": "lambda"}


# the types a settings value of each annotation text takes; a bool is no number
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}
# how ``check_fields`` names each type rule
_TYPE_RULES = {"int": "an integer", "float": "a number", "bool": "a bool", "str": "a string",
               "tuple[int, ...]": "integers"}


def fits(annotation: str, value) -> bool:
    """Whether ``value`` has the type a settings value of annotation text
    ``annotation`` takes: ``int`` a Python or numpy integer, ``float`` a real
    number, neither a bool; ``bool`` a Python or numpy bool; ``str`` a
    ``str``; ``tuple[int, ...]`` a tuple of integers only; any other
    annotation takes any value."""
    if annotation == "tuple[int, ...]":
        return isinstance(value, tuple) and all(fits("int", item) for item in value)
    if annotation == "bool":
        return isinstance(value, (bool, np.bool_))
    kind = _TYPES.get(annotation)
    return kind is None or isinstance(value, kind) and not isinstance(value, bool)


def _finite(value) -> bool:
    """Whether the real number ``value`` converts to a finite float."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def check_fields(owner, rules) -> None:
    """Raise ``ValueError("<key> must be <rule>, got <value>")`` for the first
    field of the dataclass ``owner`` whose value does not ``fits`` its
    annotation, else for the first ``float`` field that does not convert to
    a finite float, else for the first ``(field, ok, rule)`` of ``rules()``
    whose ``ok`` is false; the value is that field of ``owner``.  ``rules``
    is a zero-argument callable, called only once every field has its type,
    so no range rule compares a value of the wrong type.  The settings
    modules postpone annotations, so a field's type is its annotation's
    text."""
    typed = [(f.name, f.type, getattr(owner, f.name)) for f in fields(owner)]

    def checks():  # lazy: each stage runs only once the one before has passed
        yield from ((name, fits(kind, v), _TYPE_RULES.get(kind)) for name, kind, v in typed)
        yield from ((name, _finite(v), "finite") for name, kind, v in typed if kind == "float")
        yield from rules()

    for name, ok, rule in checks():
        if not ok:
            raise ValueError(f"{KEY_OF_FIELD.get(name, name)} must be {rule}, "
                             f"got {getattr(owner, name)!r}")


def share_blocks(rows: int, block_rows: int, shared: bool, body) -> None:
    """Call ``body(lo, hi)`` on every ``block_rows``-row block of ``rows``
    rows: a block is its span and nothing else.

    When ``shared``, the calling thread and up to ``_WORKERS - 1`` threads
    started here take the blocks in ascending order, one at a time, and no
    more threads than blocks; else the calling thread takes them all.
    Every worker is joined before this returns.  The first exception any
    block raises stops the hand-out and is re-raised here.  ``body`` writes
    only its own block's rows, so the outputs do not depend on which thread
    ran a block.
    """
    threads = min(_WORKERS, -(-rows // block_rows)) if shared else 1
    starts = iter(range(0, rows, block_rows))
    lock = threading.Lock()
    errors = []

    def share():
        try:
            while True:
                with lock:
                    lo = None if errors else next(starts, None)
                if lo is None:
                    return
                body(lo, min(lo + block_rows, rows))
        except BaseException as e:  # re-raised by the calling thread
            with lock:
                errors.append(e)

    workers = []
    try:
        for _ in range(threads - 1):
            worker = threading.Thread(target=share)
            worker.start()
            workers.append(worker)
        share()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


# the thread-count functions of the OpenBLAS bundled with numpy
_BLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
# their (get, set) handles, or () when numpy bundles no such library; None
# until ``one_blas_thread`` first looks them up
_BLAS = None


@contextmanager
def one_blas_thread():
    """Hold the OpenBLAS bundled with numpy at one thread for the ``with``
    body, and give back the caller's count on exit, also when the body
    raises.  A no-op when numpy bundles no library with ``_BLAS_SYMBOLS``;
    they are looked up on first use, so importing changes nothing.  The
    count is the process's: two threads inside at once can leave it at one."""
    global _BLAS
    if _BLAS is None:
        _BLAS = ()
        for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
            lib = ctypes.CDLL(str(path))  # numpy loaded it already: the same handle
            if all(hasattr(lib, symbol) for symbol in _BLAS_SYMBOLS):
                get, set_ = _BLAS = tuple(getattr(lib, symbol) for symbol in _BLAS_SYMBOLS)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
    get, set_ = _BLAS or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def fork_workers() -> int:
    """The processes one fan-out may use now: ``_WORKERS`` when ``os.fork``
    exists and no other Python thread is alive (a fork copies only the
    calling thread), else 1."""
    return _WORKERS if hasattr(os, "fork") and threading.active_count() == 1 else 1


class _Forked:
    """A forked worker that runs ``body(share, write)`` on the write end of
    a new pipe; ``fd`` is the pipe's read end, and ``status`` is None until
    reaped.  The worker first closes ``inherited``, the read ends of the
    workers forked before it."""

    def __init__(self, body, share, inherited):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:  # the worker: it leaves only through os._exit
            code = 1
            try:
                gc.disable()  # no collection, so no finalizer of the caller's objects runs here
                for fd in (read, *inherited):
                    os.close(fd)
                body(share, write)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.fd, self.status = read, None

    def copy_to(self, out) -> bool:
        """Copy the pipe into the binary stream ``out`` 1 MiB at a time until
        the worker closes it; True when the worker then exits 0."""
        while block := os.read(self.fd, 1 << 20):
            out.write(block)
        return self.reap() == 0

    def reap(self) -> int:
        """Close the pipe (a worker still writing then fails) and wait for the
        worker; its wait status."""
        if self.status is None:
            os.close(self.fd)
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status


@contextmanager
def forked(shares, body):
    """Fork one worker per share of ``shares`` after the first, and yield
    one handle per forked share, in share order.

    A worker runs ``body(share, fd)``, with ``fd`` the write end of its
    pipe, and leaves only through ``os._exit``: 0 when ``body`` returns.
    The caller does the first share itself, inside the ``with`` block, and
    then calls each handle's ``copy_to(out)``, which streams the pipe into
    the binary stream ``out`` and says whether the worker exited 0; the
    caller redoes a share whose worker did not, and every share past the
    last handle.  Nothing is forked when ``fork_workers()`` is 1, and a fork
    that raises ``OSError`` leaves the shares from it on to the caller.
    Every worker is reaped before this returns or raises.
    """
    handles = []
    try:
        try:
            for share in shares[1:] if fork_workers() > 1 else ():
                handles.append(_Forked(body, share, [h.fd for h in handles]))
        except OSError:  # no process to spare
            pass
        yield handles
    finally:
        for handle in handles:
            handle.reap()
