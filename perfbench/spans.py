"""In-memory span recorder and the arithmetic that turns spans into layers.

A span is one call into a layer: ``name``, ``start``, ``end``, the index
of the span that was open when it began (``parent``) and the pass it
belongs to.  Spans stay in memory until the run ends.  A layer's *self
time* is the duration of its spans minus the part of each interval that
its child spans cover, so the self times of all layers under one root
add up to the root's duration.

Functions are wrapped from outside the program (:meth:`Tracer.wrap`);
nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the benchmark's own root span around one pass.
ROOT = "pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int


class Tracer:
    """Records spans and counts on the thread that created it.

    Calls from other threads pass straight through.  A call into a layer
    that is already open (a method delegating to an overload of itself,
    ``fit_runs`` -> ``run_all`` -> ``backend.run``) also passes through,
    so each layer is counted once, at its outermost boundary.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.pass_id = 0
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._thread = threading.get_ident()

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        self._open[span.name] -= 1

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (used for the root)."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(
        self,
        fn: Callable,
        name,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per outermost call.

        ``name`` is a string or a callable of the call's arguments (the
        fit wrappers name their span after ``type(self)``).
        ``on_result(counts, args, kwargs, result)`` reads counters off
        the returned value, after the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if threading.get_ident() != self._thread or self._open[label]:
                return fn(*args, **kwargs)
            index = self._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(
            (spans[c].start, spans[c].end) for c in children[index]
        ):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


def layer_totals(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Self time summed per span name, and the total root duration."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    root = sum(s.end - s.start for s in spans if s.name == ROOT)
    return dict(totals), root


def coverage(spans: Sequence[Span]) -> float:
    """Share of traced wall time that layers (not the root) account for."""
    totals, root = layer_totals(spans)
    if root <= 0.0:
        return 0.0
    return sum(v for k, v in totals.items() if k != ROOT) / root


def dump(spans: Iterable[Span]) -> List[list]:
    """Spans as JSON-ready rows ``[name, start, end, parent, pass_id]``."""
    return [[s.name, s.start, s.end, s.parent, s.pass_id] for s in spans]
