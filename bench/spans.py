"""Span tracer for the traced benchmark run.

The tracer wraps the public names each cipbench layer is called through,
on the module attribute (or class attribute, or dict entry) that the caller
resolves at call time.  The wrappers live here, in the benchmark, never in
``src/``: the library stays untouched, and the untraced run calls the
original functions.

A span's self time is its duration minus the time covered by the spans it
caused (its children), so the self times of nested layers add up to the
wall time of the outermost span without double counting.

Run ``python3 bench/spans.py`` to execute the harness self-test.
"""

from __future__ import annotations

import contextlib
import time

SPAN_MARK = "__bench_span__"


class Tracer:
    """Calls, self time and inclusive time per span name, plus named counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        self._open: list[float] = []  # per open span: time covered by its children
        self._slots: list[tuple] = []  # (owner, key, original, wrapper)

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so every call records one span called ``name``.

        ``on_return(counts, args, kwargs, result)`` may add to the named
        counts after a successful call.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = self.clock
        counts = self.counts

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                stats[2] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        setattr(span, SPAN_MARK, name)
        return span

    def install(self, owner, key: str, wrapper) -> None:
        """Put ``wrapper`` where callers resolve ``owner.key`` (or ``owner[key]``)."""
        original = lookup(owner, key)
        if is_traced(original):
            raise RuntimeError(f"{key} is already traced")
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        _set(owner, key, wrapper)
        self._slots.append((owner, key, original, wrapper))

    def remove(self) -> None:
        """Restore every original, newest first."""
        for owner, key, original, _ in reversed(self._slots):
            _set(owner, key, original)

    def reinstall(self) -> None:
        for owner, key, _, wrapper in self._slots:
            _set(owner, key, wrapper)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block (output checks, say) with the originals in place."""
        self.remove()
        try:
            yield
        finally:
            self.reinstall()

    def originals_restored(self) -> bool:
        return all(lookup(owner, key) is original for owner, key, original, _ in self._slots)


def lookup(owner, key):
    """The object callers find at ``owner.key`` (or ``owner[key]``)."""
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]  # the raw descriptor, so classmethods survive
    return getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def is_traced(obj) -> bool:
    return hasattr(obj, SPAN_MARK) or hasattr(getattr(obj, "__func__", None), SPAN_MARK)


def self_test() -> list[tuple[str, bool]]:
    """Harness checks that need no cipbench: (check name, passed) pairs."""
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])

    class Owner:
        @classmethod
        def make(cls, x):
            tick(0.5)
            return x

    ns = type("ns", (), {})()
    ns.inner = lambda: tick(2.0)

    def outer():
        tick(1.0)
        ns.inner()
        tick(3.0)
        return Owner.make(7)

    ns.outer = outer
    table = {"outer": outer}
    originals = (ns.inner, ns.outer, Owner.__dict__["make"])
    tracer.install(ns, "inner", tracer.wrap("t.inner", ns.inner))
    tracer.install(ns, "outer", tracer.wrap("t.outer", outer))
    tracer.install(table, "outer", lookup(ns, "outer"))
    tracer.install(Owner, "make", tracer.wrap("t.make", Owner.make.__func__))
    result = table["outer"]()
    with tracer.suspended():
        suspended_calls_original = ns.inner is originals[0]
        ns.outer()
    calls_after_suspend = tracer.stats["t.outer"][0]
    tracer.remove()

    def close(a, b):
        return abs(a - b) < 1e-12

    return [
        ("trace: result passes through", result == 7),
        ("trace: outer self time excludes child spans",
         close(tracer.stats["t.outer"][1], 4.0) and close(tracer.stats["t.outer"][2], 6.5)),
        ("trace: leaf self time equals its duration", close(tracer.stats["t.inner"][1], 2.0)),
        ("trace: classmethod wrapped", close(tracer.stats["t.make"][1], 0.5)),
        ("trace: suspended block calls originals",
         suspended_calls_original and calls_after_suspend == 1),
        ("trace: remove restores originals",
         (ns.inner, ns.outer, Owner.__dict__["make"]) == originals
         and table["outer"] is outer and tracer.originals_restored()),
    ]


if __name__ == "__main__":
    results = self_test()
    for name, ok in results:
        print(("ok   " if ok else "FAIL ") + name)
    raise SystemExit(0 if all(ok for _, ok in results) else 1)
