"""Spans and counters recorded around the benchmark's calls into luinv.

A span covers one public call the benchmark makes into a layer.  It
records the layer metric it feeds (``name``), the library function
(``call``), start and end on the ``perf_counter`` clock, its parent span
and the op it belongs to.  Spans stay in memory and are written out once
the run ends.  Untraced runs use ``NULL_TRACER``, which records nothing.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("id", "name", "call", "start", "end", "parent", "op")

    def __init__(self, span_id, name, call, start, parent, op):
        self.id = span_id
        self.name = name
        self.call = call
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "call": self.call,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Records nested spans; ``op`` is the id shared by one op's spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name, call=None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, call, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %r closed out of order" % span.name)

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [(s, s.end - s.start - child[s.id]) for s in self.spans]


class _NullTracer:
    op = None

    def open(self, name, call=None):
        return None

    def close(self, span):
        pass


NULL_TRACER = _NullTracer()


class Counts:
    """Exact work counts gathered from call inputs and results.

    ``add`` sums, ``low`` keeps the minimum and ``high`` the maximum.
    """

    def __init__(self):
        self.sums = {}
        self.lows = {}
        self.highs = {}

    def add(self, key, value=1):
        self.sums[key] = self.sums.get(key, 0) + value

    def low(self, key, value):
        if key not in self.lows or value < self.lows[key]:
            self.lows[key] = value

    def high(self, key, value):
        if key not in self.highs or value > self.highs[key]:
            self.highs[key] = value


class OpContext:
    """What one op uses to call the program.

    ``call`` times the call, opens a span for it on the tracer and adds
    its duration to ``busy``, the op's latency.  The benchmark's own
    reference checks run outside ``call`` and so stay out of the latency.
    """

    def __init__(self, tracer, counts):
        self.tracer = tracer
        self.counts = counts
        self.busy = 0.0
        self.last_span = None

    def call(self, name, fn, *args, **kwargs):
        span = self.tracer.open(name, getattr(fn, "__name__", None))
        self.last_span = span
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy += time.perf_counter() - start
            self.tracer.close(span)

    def rename_last(self, name):
        """Re-file the last span once its result names the layer it used."""
        if self.last_span is not None:
            self.last_span.name = name
