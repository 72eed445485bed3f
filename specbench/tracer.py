"""Spans recorded from outside the package by wrapping its public functions.

Each target function is replaced on its owner (module or class) with
``setattr``, so callers inside the same module, which look the name up in
the module globals at call time, are caught as well.  Spans are kept in
memory as ``[name, start, end, parent]`` lists; a span's self time is its
duration minus the durations of its direct children (calls are strictly
nested in this single-threaded program).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


def public_functions(module):
    """(module, name) for every public function defined in ``module``."""
    return [(module, name) for name, fn in sorted(vars(module).items())
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Installs span-recording wrappers on ``targets`` while active.

    ``targets`` is a list of ``(owner, attribute, span_name)``; ``counters``
    maps a span name to ``fn(args, kwargs, result) -> {counter: number}``,
    evaluated at that boundary after the call returns.
    """

    def __init__(self, targets, counters=None):
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    counts[key] += val
            return result

        return traced

    def __enter__(self):
        for owner, attr, name in self.targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def aggregate(self):
        """{span name: {"calls", "total_s", "self_s"}} plus counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, t0, t1, _), covered in zip(self.spans, child):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - covered
        return dict(agg), dict(self.counts)
