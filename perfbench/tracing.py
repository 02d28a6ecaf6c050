"""In-memory spans and call counters recorded around calls into genhjb.

A span has a name, start, end and the index of its parent span.  Spans stay
in a list and are written out by the caller when the run ends.  Calls that
are too many to record one span each (policy queries and stage costs inside
a rollout) go through :meth:`Tracer.timed`, which keeps a count and a total
time per name and charges that time to the enclosing span as child time.

With ``enabled`` false a tracer still measures each span's duration (the
workloads derive their stage times from it) but keeps no spans, and
``timed`` returns the callable unchanged.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0  # time of timed calls made while this span was open

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.calls: dict[str, list] = {}  # name -> [count, seconds]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, 0.0, parent)
        if self.enabled:
            self.spans.append(s)
            self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if self.enabled:
                self._open.pop()

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the counter ``name``."""
        if not self.enabled:
            return fn
        counter = self.calls.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        open_spans, spans = self._open, self.spans

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            counter[0] += 1
            counter[1] += dt
            if open_spans:
                spans[open_spans[-1]].child_s += dt
            return out
        return wrapper

    def self_times(self) -> dict:
        """Seconds per span name not covered by child spans or timed calls.

        Timed calls count as their own entries, so the self times of a run
        add up to the duration of its root spans.
        """
        child = [s.child_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.seconds - c
        for name, (_, seconds) in self.calls.items():
            out[name] = out.get(name, 0.0) + seconds
        return out

    def layer_self_times(self) -> dict:
        """Self times summed per layer, the span-name prefix before the dot."""
        out: dict[str, float] = {}
        for name, sec in self.self_times().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + sec
        return out

    def overhead_estimate(self, reps: int = 20000) -> float:
        """Seconds this tracer's spans and timed calls added, from a calibration.

        Times ``reps`` timed calls of a no-op against plain calls, and ``reps``
        empty spans, then scales by what this run recorded.
        """
        probe = Tracer(True)
        noop = lambda: None  # noqa: E731
        wrapped = probe.timed("noop", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(reps):
            noop()
        t1 = clock()
        for _ in range(reps):
            wrapped()
        t2 = clock()
        for _ in range(reps):
            with probe.span("s"):
                pass
        t3 = clock()
        per_call = max(0.0, (t2 - t1) - (t1 - t0)) / reps
        per_span = (t3 - t2) / reps
        calls = sum(count for count, _ in self.calls.values())
        return calls * per_call + len(self.spans) * per_span

    def dump(self) -> list:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start_s": s.start - t0, "end_s": s.end - t0,
                 "parent": s.parent} for s in self.spans]
