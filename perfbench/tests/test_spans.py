"""Span arithmetic and the tracer's wrapping rules."""

import threading

from perfbench import spans
from perfbench.spans import ROOT, Span, Tracer


def tree():
    # pass [0, 10] > a [1, 4] > a.child [2, 3];  pass > b [5, 9]
    return [
        Span(ROOT, 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]


def test_self_time_subtracts_children():
    assert spans.self_times(tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    rows = [
        Span("p", 0.0, 10.0, None, 0),
        Span("x", 1.0, 6.0, 0, 0),
        Span("y", 4.0, 8.0, 0, 0),
        Span("z", 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert spans.self_times(rows)[0] == 10.0 - 7.0 - 1.0


def test_layer_totals_and_coverage():
    rows = tree() + [Span(ROOT, 10.0, 14.0, None, 1), Span("b", 11.0, 12.0, 4, 1)]
    totals, root = spans.layer_totals(rows)
    assert root == 14.0
    assert totals == {ROOT: 3.0 + 3.0, "a": 2.0, "a.child": 1.0, "b": 5.0}
    assert spans.coverage(rows) == (2.0 + 1.0 + 5.0) / 14.0
    assert spans.coverage([]) == 0.0


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrap_records_outermost_call_and_counts():
    tracer = Tracer(clock=Clock())

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_outer(x + 1) if x < 1 else traced_inner(x)

    def add(counts, args, kwargs, result):
        counts["n"] += result

    traced_inner = tracer.wrap(inner, "inner", add)
    wrapped_outer = tracer.wrap(outer, "outer")
    with tracer.span(ROOT):
        assert wrapped_outer(0) == 2  # outer re-enters itself: one span

    names = [s.name for s in tracer.spans]
    assert names == [ROOT, "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.counts["n"] == 2
    assert all(s.end > s.start for s in tracer.spans)


def test_wrap_passes_other_threads_through():
    tracer = Tracer()
    traced = tracer.wrap(lambda: 7, "layer")
    results = []
    thread = threading.Thread(target=lambda: results.append(traced()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert results == [7]
    assert tracer.spans == []


def test_wrap_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap(boom, "layer")
    try:
        traced()
    except ValueError:
        pass
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.wrap(lambda: 1, "layer")() == 1  # the layer is closed again
