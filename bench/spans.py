"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: around each call it makes
into mmprep, and around the module attributes that mmprep looks up when one
layer calls another (wrapped from outside, restored afterwards). A span holds
its name, start, end, parent span and run id; spans stay in memory until the
run writes them out. Work done on a thread that has no open span is parented
to the innermost span open on the thread that created the tracer, which is
where the annotation pipeline's worker threads were started from.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._ids = itertools.count()  # next() and list.append are atomic under the GIL
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent, time.perf_counter()

    def _close(self, name: str, opened: tuple) -> None:
        end = time.perf_counter()
        stack, span_id, parent, start = opened
        stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def count(self, name: str, n: int | float = 1) -> None:
        """Add n to a counter of the current run id."""
        with self._lock:
            self.counts[(self.run_id, name)] += n

    def traced(self, fn, name: str, on_call=None):
        """fn wrapped in a span; on_call(tracer, *args) records counts first.

        Not built on span(): wrapped functions run up to 50k times a round,
        and a generator-based context manager would double the overhead.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args)
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, opened)

        return wrapper

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace owner.attr by a traced version until restore()."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.traced(raw.__func__, name, on_call)))
        else:
            setattr(owner, attr, self.traced(raw, name, on_call))

    def restore(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write every span as one JSON line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
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
