"""Spans recorded from outside the program.

A `Tracer` replaces public functions of lemlab modules with wrappers that
record one span per call: name, start, end, parent span and trial id.
The wrappers are installed only for the traced phase of a run and are
removed afterwards, so the untraced phase runs the program unmodified.
Spans stay in memory until the run writes them out as JSONL.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for a root span
    trial: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open in the same thread when it started.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, trial=None):
        """Open a span; with `trial` set, it and its descendants carry that id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        if trial is None:
            trial = stack[-1][1] if stack else None
        attrs = {}
        stack.append((sid, trial))
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, trial, attrs))

    def wrap(self, name, fn, attrs_of=None, trial_of=None):
        """`fn` with a span around each call.  `attrs_of(args, kwargs, result)`
        returns counts to store on the span; `trial_of(args, kwargs)` makes
        the span a trial's root span and returns the trial id."""

        def traced(*args, **kwargs):
            trial = None if trial_of is None else trial_of(args, kwargs)
            with self.span(name, trial=trial) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, span name, attrs_of
        [, trial_of]) targets, and restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, *hooks in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, *hooks))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path, selfs):
        """One JSON line per span, in start order, with its self time."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "parent": s.parent, "trial": s.trial,
                    "self_ns": selfs[s.id], "attrs": s.attrs,
                }, default=str) + "\n")


def covered_length(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """{span id: duration minus the part of it its child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(s.start, s.end, children[s.id])
        for s in spans
    }
