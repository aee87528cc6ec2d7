"""Span nesting, self-time arithmetic and the Chrome trace shape."""

import itertools

import pytest

from repobench.spans import SpanTracer, chrome_trace, self_times


def ticking(step: int = 10):
    """A fake clock advancing ``step`` ns on every read."""
    counter = itertools.count(0, step)
    return lambda: next(counter)


def test_self_time_is_duration_minus_children():
    tracer = SpanTracer(clock=ticking())

    def leaf():
        return "leaf"

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf")
    wrapped_middle = tracer.wrap(middle, "middle")
    with tracer.span("unit"):
        assert wrapped_middle() == "leafleaf"

    # every clock read advances 10 ns: a leaf lasts one tick; middle spans
    # its two leaves plus the reads between them
    assert tracer.calls("leaf") == 2
    assert tracer.stats["leaf"] == [2, 20, 20]
    calls, total, own = tracer.stats["middle"]
    assert calls == 1 and own == total - 20
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names == ["unit", "middle", "leaf", "leaf"]
    parents = [s[3] for s in spans]
    assert parents == [-1, 0, 1, 1]
    # the running sums agree with the reference computed from the records
    by_name = {}
    for (name, *_), own_ns in zip(spans, self_times(spans)):
        by_name[name] = by_name.get(name, 0) + own_ns
    for name, own_ns in by_name.items():
        assert tracer.stats[name][2] == own_ns


def test_self_times_add_up_to_the_roots():
    tracer = SpanTracer(clock=ticking(7))
    hot = tracer.wrap(lambda x: x + 1, "hot", record=False)

    def work(n):
        return sum(hot(i) for i in range(n))

    traced_work = tracer.wrap(work, "work")
    with tracer.span("setup"):
        traced_work(3)
    for run_id in (1, 2):
        tracer.run_id = run_id
        with tracer.span("unit"):
            traced_work(5)
            hot(0)
    total_self, roots = tracer.self_time_check()
    assert total_self == roots > 0
    # counted frames keep no span record but still count and nest
    assert tracer.calls("hot") == 3 + 2 * 6
    assert {s[0] for s in tracer.spans} == {"setup", "unit", "work"}
    assert {s[4] for s in tracer.spans} == {0, 1, 2}


def test_a_frame_outside_the_roots_breaks_the_identity():
    tracer = SpanTracer(clock=ticking())
    stray = tracer.wrap(lambda: None, "stray")
    with tracer.span("unit"):
        pass
    stray()
    total_self, roots = tracer.self_time_check()
    assert total_self != roots


def test_exceptions_close_their_frames():
    tracer = SpanTracer(clock=ticking())

    def boom():
        raise ValueError("boom")

    with tracer.span("unit"):
        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom")()
        with pytest.raises(ValueError):
            tracer.wrap(boom, "hot", record=False)()
    assert tracer.calls("boom") == tracer.calls("hot") == 1
    total_self, roots = tracer.self_time_check()
    assert total_self == roots


def test_frame_name_from_arguments_and_after_hook():
    tracer = SpanTracer(clock=ticking())
    seen = []
    kind = tracer.wrap(lambda k: k * 2, lambda k: f"kind.{k}",
                       after=lambda result, k: seen.append((result, k)))
    with tracer.span("unit"):
        kind("a")
        kind("b")
    assert tracer.calls("kind.a") == tracer.calls("kind.b") == 1
    assert seen == [("aa", "a"), ("bb", "b")]
    with pytest.raises(TypeError):
        tracer.wrap(lambda: None, lambda: "x", record=False)


def test_chrome_trace_shape():
    tracer = SpanTracer(clock=ticking(1000))
    step = tracer.wrap(lambda: None, "step")
    tracer.run_id = 3
    with tracer.span("unit"):
        step()
    trace = chrome_trace(tracer.spans, "bench")
    events = trace["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in slices] == ["unit", "step"]
    assert slices[0]["ts"] == 0.0 and slices[0]["dur"] == 3.0
    assert slices[1]["args"] == {"span": 1, "parent": 0}
    assert all(e["tid"] == 3 for e in slices)
    assert {e["name"] for e in events if e["ph"] == "M"} == {
        "process_name", "thread_name"}
