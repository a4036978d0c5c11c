"""In-memory spans for the benchmark's traced runs.

A span records its name, start, end, the span that was open when it
started (its parent) and the run id of the job it belongs to.  Spans stay
in memory; the caller writes them out once the measurement is over.  Self
time is a span's duration minus the time its child spans cover; spans are
opened and closed on one thread, so children never overlap and that cover
is the sum of their durations.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), None, parent, tracer.run_id])
        tracer._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter()
        tracer._open.pop()
        return False


class Tracer:
    """Records nested spans; ``run_id`` tags every span opened after it is set."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self._open = []
        self.run_id = None

    def span(self, name):
        return _Span(self, name)

    def self_times(self):
        """{run id: {name: [self time of each span]}}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, rid in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(list))
        for index, (name, start, end, parent, rid) in enumerate(spans):
            out[rid][name].append(end - start - child[index])
        return out

    def rows(self):
        """Spans as JSON-ready dicts, start and end relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [{"name": name, "start_s": start - t0, "end_s": end - t0,
                 "parent": parent, "run": rid}
                for name, start, end, parent, rid in self.spans]


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: every span is the same do-nothing context manager."""

    enabled = False
    run_id = None

    def span(self, name):
        return _NO_SPAN
