"""In-memory span tracer that wraps ternrep's functions from outside.

install() replaces a function in every loaded ternrep module that holds
it, so calls through `from .x import f` bindings are seen too, and
uninstall() puts the originals back.  A span records (name, start, end,
parent); parents come from a per-thread stack.  A span opened on a
thread with no open span of its own (a worker of a thread pool) takes
as parent the innermost open span of the thread that installed the
tracer, which is the span that started the pool.

Self time is a span's duration minus the union of the intervals covered
by its children, so two children running at once on two threads are
subtracted once, not twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.info = None


def union_length(intervals, lo, hi):
    """Total length of the union of [start, end] intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{id(span): self time} for every span."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        id(s): (s.end - s.start) - union_length(children.get(id(s), ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """Spans for wrapped functions, plain call counts for counted ones."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._owner = None
        self._owner_stack = None
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        span = Span(name, parent)
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span, error=None):
        span.end = time.perf_counter()
        span.error = error
        self._stack().pop()

    def spanned(self, name, fn, observe=None):
        """fn wrapped in a span; observe(span, args, kwargs, result) on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            self.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return _keep_cache_api(wrapper, fn)

    def counted(self, name, fn):
        """fn wrapped in a bare call counter, for hot leaf functions."""
        counts, lock = self.counts, self._lock
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return _keep_cache_api(wrapper, fn)

    def install(self, targets):
        """Patch every binding of each original.

        targets is a list of (original function, wrapper) pairs; every
        attribute of a loaded ternrep module that is the original object
        is replaced by its wrapper.
        """
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in targets}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ternrep" or modname.startswith("ternrep.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self):
        """Spans as JSON-ready rows: [name, start, end, parent index, error]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, index.get(id(s.parent)), s.error]
            for s in self.spans
        ]


def _keep_cache_api(wrapper, fn):
    # an lru_cache object keeps working: cache_info / cache_clear reach the original
    for attr in ("cache_info", "cache_clear", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper
