"""Spans and counters recorded from outside the package.

A span is (name, start, end, parent, solve, attrs, counts): ``parent`` is the
index of the enclosing span or -1, ``solve`` the id shared by every span of one
solve, ``attrs`` a few facts about the call's result and ``counts`` the
count-only events (factorizations, multiplier evaluations) seen while the span
was the innermost one.  Spans stay in memory until the run ends.
"""

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "attrs", "counts")

    def __init__(self, name, start, end, parent, solve, attrs=None, counts=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.solve = parent, solve
        self.attrs, self.counts = attrs, counts

    def row(self):
        return [self.name, self.start, self.end, self.parent, self.solve, self.attrs, self.counts]


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def write_spans(spans, path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.row()) + "\n")


def merge_block(spans, rows):
    """Append spans recorded elsewhere (indices local to ``rows``) to ``spans``."""
    offset = len(spans)
    for name, start, end, parent, solve, attrs, counts in rows:
        spans.append(Span(name, start, end, parent + offset if parent >= 0 else -1,
                          solve, attrs, counts))


class Tracer:
    """Records spans around wrapped functions; installs and removes the wrappers."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self._stack = []
        self._patches = []

    def clear(self):
        self.spans.clear()
        self._stack.clear()

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), None, parent, self.solve)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name, solve):
        """A span that starts a new solve id."""
        previous, self.solve = self.solve, solve
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            self.solve = previous

    def count(self, key):
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span.counts is None:
                span.counts = {}
            span.counts[key] = span.counts.get(key, 0) + 1

    def wrap(self, func, name, attrs=None):
        """``func`` inside a span; ``attrs(args, kwargs, result)`` annotates it."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return traced

    def counting(self, func, key):
        """``func`` counted against the innermost open span, without a span of its own."""
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.count(key)
            return func(*args, **kwargs)
        return counted

    def install(self, modules, original, replacement):
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

