"""In-memory span recorder for the traced benchmark pass.

A span is (name, start, end, parent, run id), plus a tag (the encoding kind)
that children inherit.  Its layer is the name without the last dotted
component, so ``gas.space.build`` belongs to ``gas.space``.  Spans stay in
memory and are written out once the pass has ended.

Hot calls (one per GAS iteration) are recorded as aggregate spans: one record
per (parent span, name) that sums the busy time and counts the calls.  A
traced pass of a few hundred thousand iterations then holds a few thousand
records instead of one per call.  Aggregates may have children of their own,
so a layer's self time is always its busy time minus that of its direct
children.

A disabled tracer records nothing and installs no wrappers, so the untraced
passes call the library exactly as a user would.
"""
from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


class Span:
    __slots__ = ("index", "name", "tag", "parent", "run", "start", "end", "busy", "calls", "items")

    def __init__(self, index, name, tag, parent, run, now):
        self.index = index
        self.name = name
        self.tag = tag
        self.parent = parent
        self.run = run
        self.start = now
        self.end = now
        self.busy = 0.0
        self.calls = 0
        self.items = 0

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    def as_record(self, origin: float) -> dict:
        return {
            "id": self.index,
            "name": self.name,
            "tag": self.tag,
            "parent": self.parent,
            "run": self.run,
            "start": self.start - origin,
            "end": self.end - origin,
            "busy": self.busy,
            "calls": self.calls,
            "items": self.items,
        }


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        # Counts and sizes that the workloads note beside their spans.
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []

    def _new(self, name: str, tag=None, run=None) -> Span:
        parent_index = None
        if self._stack:
            parent = self._stack[-1]
            parent_index = parent.index
            run = parent.run if run is None else run
            tag = parent.tag if tag is None else tag
        span = Span(len(self.spans), name, tag, parent_index, run, time.perf_counter())
        self.spans.append(span)
        return span

    def span(self, name: str, tag=None, run=None):
        """Context manager timing one call into a layer; yields the Span (None if off)."""
        if not self.enabled:
            return nullcontext()
        return self._timed_span(name, tag, run)

    @contextmanager
    def _timed_span(self, name, tag, run):
        span = self._new(name, tag, run)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            span.busy = span.end - span.start
            span.calls = 1

    def _timed(self, original, name: str, aggregate: bool, count=None):
        """``original`` wrapped so that each call is a span (or adds to an aggregate)."""
        stack, clock = self._stack, time.perf_counter
        aggregates: dict = {}

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            if aggregate:
                span = aggregates.get(parent)
                if span is None:
                    span = aggregates[parent] = self._new(name)
            else:
                span = self._new(name)
            stack.append(span)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                span.busy += span.end - t0
                span.calls += 1
                stack.pop()
            if count is not None:
                span.items += count(args, result)
            return result

        return timed

    def wrap(self, obj, method: str, name: str, aggregate: bool = False) -> None:
        """Time every call of ``obj.method`` through a wrapper set on the instance.

        The object itself is not replaced, so ``isinstance`` checks inside the
        library see the same class and take the same code path.
        """
        if not self.enabled:
            return
        # Hold the instance weakly: a strong reference from its own attribute
        # would be a cycle, and a dropped SearchSpace would wait for the cycle
        # collector instead of being freed before the next one is built.
        function, instance = getattr(type(obj), method), weakref.ref(obj)

        def call(*args, **kwargs):
            return function(instance(), *args, **kwargs)

        setattr(obj, method, self._timed(call, name, aggregate))

    @contextmanager
    def patch(self, owner, attr: str, name: str, count=None):
        """Rebind ``owner.attr`` (a module function or a class method) to a timed
        wrapper until the block ends.  ``count(args, result)`` adds to the span's
        items."""
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)
        setattr(owner, attr, self._timed(original, name, aggregate=False, count=count))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def summary(self) -> "TraceSummary":
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_busy[span.parent] += span.busy
        summary = TraceSummary()
        for span in self.spans:
            summary.self_by_layer[span.layer] += span.busy - child_busy[span.index]
            summary.busy[span.name] += span.busy
            summary.calls[span.name] += span.calls
            summary.items[span.name] += span.items
            if span.tag is not None:
                summary.busy[f"{span.name}.{span.tag}"] += span.busy
        return summary

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_record(origin)) + "\n")


@dataclass
class TraceSummary:
    """Per-name totals and per-layer self times of one traced pass."""

    self_by_layer: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    busy: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    items: dict[str, int] = field(default_factory=lambda: defaultdict(int))
