"""Settings-field checks and the package's one fan-out.

``check_fields`` checks the settings fields of ``data``, ``losses`` and
``trainer``; ``KEY_OF_FIELD`` names a field's config key for them and for
``config``.

This is the only module that starts a thread or a process.
``share_blocks`` runs the row blocks of ``retrieval.rank`` and
``evaluate_run`` on up to ``_WORKERS`` threads, one per CPU this process
may use, and joins every thread before it returns.  ``forked`` runs the
later row spans of ``data.write_csv`` on one forked worker each, which
streams its bytes back through a pipe.  A block or a span is the whole of
what its body gets: any array it needs it allocates itself.  It forks only
while no other Python thread is alive, since a fork copies only the calling
thread: that is why ``share_blocks`` joins before returning.
"""

from __future__ import annotations

import gc
import math
import os
import threading
from contextlib import contextmanager

__all__ = ["check_fields", "fork_workers", "forked", "share_blocks"]

# threads or processes that share one call's work: one per CPU this
# process may use, read once
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# config key of each settings field whose name differs (``lambda`` is a keyword)
KEY_OF_FIELD = {"lam": "lambda"}


def check_fields(owner, rules) -> None:
    """Raise ``ValueError("<key> must be <rule>, got <value>")`` for the first
    field of the dataclass ``owner`` that holds a non-finite float (the rule
    ``finite``), else for the first ``(field, ok, rule)`` of ``rules`` whose
    ``ok`` is false; the value is that field of ``owner``."""
    finite = [(name, math.isfinite(value), "finite") for name, value in vars(owner).items()
              if isinstance(value, float)]
    for name, ok, rule in (*finite, *rules):
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
