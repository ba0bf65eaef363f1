"""An in-memory span tracer that wraps library functions from outside.

``Tracer.wrap`` swaps a module or class attribute for a wrapper that records
a span per call: name, start and end (``perf_counter_ns``), the span open
when it started, and the thread.  A span opened on a pool thread with
nothing open on that thread takes as parent the innermost span open on the
thread that built the tracer, so client updates hang under ``run_round``.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    tid: int
    value: float = 0.0  # work count an observer attached (samples, bytes...)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._wraps: list[tuple[object, str, Callable, Callable]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
              observe: Callable | None = None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        value = observe(args, out) if observe is not None else 0.0
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), value))
        return out

    def wrap(self, owner, attr: str, name: str, observe: Callable | None = None) -> None:
        """Trace ``owner.attr`` inside ``with tracer:``; ``observe(args, result)``
        returns the span's work count."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self._call(name, orig, args, kwargs, observe)

        traced.__name__ = getattr(orig, "__name__", attr)
        self._wraps.append((owner, attr, orig, traced))

    def __enter__(self) -> "Tracer":
        """Install every wrapper; leaving the block puts the originals back."""
        for owner, attr, _, traced in self._wraps:
            setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig, _ in reversed(self._wraps):
            setattr(owner, attr, orig)


def union_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.ns - union_ns(children.get(s.sid, ()), s.start, s.end) for s in spans}
