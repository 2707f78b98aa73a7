"""Span self-time arithmetic and the wrappers that record spans."""
import pytest

from tracing import Tracer, _wrap


def scripted_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)
    assert tracer.parents == [-1, root, a, root]
    assert tracer.self_times() == [3, 2, 1, 4]


def test_summary_sums_self_and_total_per_name():
    tracer = Tracer(clock=scripted_clock(0, 1, 3, 4, 7, 10))
    root = tracer.begin("run")
    for _ in range(2):
        index = tracer.begin("leaf")
        tracer.end(index)
    tracer.end(root)
    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 2, "self_s": 5, "total_s": 5}
    assert summary["run"] == {"calls": 1, "self_s": 5, "total_s": 10}


def test_spans_close_out_of_order_raise():
    tracer = Tracer(clock=scripted_clock(0, 1, 2))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrapper_nests_calls_and_closes_on_error():
    tracer = Tracer(clock=iter(range(100)).__next__)

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = _wrap(tracer, leaf, lambda x: f"leaf.{x}")
    traced_outer = _wrap(tracer, lambda: traced_leaf(1) + traced_leaf(2), lambda: "outer")
    assert traced_outer() == 3
    with pytest.raises(ValueError):
        traced_leaf(-1)
    assert tracer.names == ["outer", "leaf.1", "leaf.2", "leaf.-1"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert all(end > start for start, end in zip(tracer.starts, tracer.ends))
    assert sum(tracer.self_times()) == pytest.approx(
        (tracer.ends[0] - tracer.starts[0]) + (tracer.ends[3] - tracer.starts[3]))
