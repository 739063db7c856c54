"""Span tracing for the benchmark's traced run.

The tracer wraps the module attributes through which the mmlsh layers call
each other (for example `mmlsh.engine.count_collisions`, which `knn_objects`
looks up on every call). The wrappers exist only inside `Tracer.installed()`,
so the untraced run executes the package exactly as shipped.

A span has a name, the span that caused it (its parent), the query it served,
a start and an end. Repeated calls with the same name, parent and query merge
into one span that also counts its calls and sums their durations: a
fit-small round makes about 1.5 million bucket accesses, and one merged
span per (parent, name, query) keeps the whole trace small enough to hold in
memory and write out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

NO_PARENT = -1
NO_QUERY = -1


class Span:
    __slots__ = ("id", "name", "parent", "query", "start_ns", "end_ns", "calls", "dur_ns")

    def __init__(self, sid, name, parent, query):
        self.id = sid
        self.name = name
        self.parent = parent
        self.query = query
        self.start_ns = None   # start of the first merged call
        self.end_ns = None     # end of the last merged call
        self.calls = 0
        self.dur_ns = 0        # summed duration of the merged calls

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Collects merged spans in memory; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = NO_QUERY
        self._by_key: dict[tuple, int] = {}
        self._stack = [NO_PARENT]

    def _enter(self, name: str) -> Span:
        key = (self._stack[-1], name, self.query)
        sid = self._by_key.get(key)
        if sid is None:
            sid = len(self.spans)
            self._by_key[key] = sid
            self.spans.append(Span(sid, name, key[0], self.query))
        self._stack.append(sid)
        return self.spans[sid]

    def _exit(self, span: Span, t0: int, t1: int) -> None:
        self._stack.pop()
        if span.start_ns is None:
            span.start_ns = t0
        span.end_ns = t1
        span.calls += 1
        span.dur_ns += t1 - t0

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._enter(name)
        t0 = time.perf_counter_ns()
        try:
            yield span
        finally:
            self._exit(span, t0, time.perf_counter_ns())

    def wrap(self, name: str, fn):
        enter, leave, clock = self._enter, self._exit, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(span, t0, clock())

        traced.traced_span_name = name
        return traced

    @contextlib.contextmanager
    def installed(self, patches):
        """Wrap each (owner, attribute, span name) for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in patches:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times_ns(spans) -> list[int]:
    """Per span: its summed duration minus the summed durations of its children.

    Calls run one at a time in one thread, so the children of a span never
    overlap and never outlast it; their summed durations are exactly the part
    of the parent's time that they cover.
    """
    own = [s.dur_ns for s in spans]
    for s in spans:
        if s.parent != NO_PARENT:
            own[s.parent] -= s.dur_ns
    return own


def phase_of(spans) -> list[str]:
    """Name of each span's outermost ancestor (the benchmark phase it ran in)."""
    phase = []
    for s in spans:  # a parent is always created before its children
        phase.append(s.name if s.parent == NO_PARENT else phase[s.parent])
    return phase


def is_traced(fn) -> bool:
    return hasattr(fn, "traced_span_name")
