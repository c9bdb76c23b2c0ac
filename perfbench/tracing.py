"""In-memory spans and counts for the traced run, plus output taps.

Spans are recorded around calls into the package's public functions,
from the benchmark's side: a call the benchmark makes goes through
``Tracer.wrap``; a call the package makes to a function it imported by
name goes through ``Patches.patch`` on the module that made the import.
Nothing is written until the run ends, when ``Tracer.metrics`` folds the
spans into per-name busy time, self time and call counts.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Patches:
    """Module attributes replaced for one run, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def tap(sink: list):
    """Wrapper factory keeping each result in ``sink`` so the benchmark
    can check outputs that the caller does not return."""

    def make(fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out

        return tapped

    return make


class NoTrace:
    """The untraced run: wrapping returns the function itself."""

    enabled = False

    def wrap(self, fn, name):
        return fn

    def traced(self, name):
        return lambda fn: fn

    def count(self, name, n=1):
        pass

    def record(self, name, t0, t1):
        pass


class Tracer:
    """Spans as (name, start, end, parent, root) tuples; ``root`` is the
    index of the outermost span, shared by every span of one operation."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][4] if parent >= 0 else idx
            spans.append((name, 0.0, 0.0, parent, root))
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, root)

        return traced

    def traced(self, name):
        return lambda fn: self.wrap(fn, name)

    def count(self, name, n=1):
        self.counts[name] += n

    def record(self, name, t0, t1):
        """A top-level span timed by the caller."""
        self.spans.append((name, t0, t1, -1, len(self.spans)))

    def metrics(self, span_names, self_time_names, count_names) -> dict:
        """busy_ms and calls per span name, self_ms (busy minus direct
        children) for the names asked, and the counts; names never seen
        read 0."""
        busy = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, t0, t1, parent, _ in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        own = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[idx]
        out = {}
        for name in span_names:
            out[f"{name}.busy_ms"] = (busy[name] * 1e3, "ms")
            out[f"{name}.calls"] = (calls[name], "count")
        for name in self_time_names:
            out[f"{name}.self_ms"] = (own[name] * 1e3, "ms")
        for name, unit in count_names:
            out[name] = (self.counts[name], unit)
        return out
