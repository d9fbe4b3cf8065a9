"""Span recording and self-time arithmetic.

Run with ``python3 -m pytest -q perfbench/checks/check_*.py``; the file
names keep these checks out of the repository's tier-1 collection.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench.spans import (  # noqa: E402
    NO_PARENT,
    SpanSummary,
    Tracer,
    self_times,
)


class FakeClock:
    """A clock that only moves when the code under test spends time."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_self_time_subtracts_direct_children_only():
    # 0: root [0, 100); 1: child [10, 50); 2: grandchild [20, 30);
    # 3: sibling of 1 [60, 90).
    parent = np.array([NO_PARENT, 0, 1, 0], dtype=np.int32)
    start = np.array([0, 10, 20, 60], dtype=np.int64)
    end = np.array([100, 50, 30, 90], dtype=np.int64)
    assert self_times(parent, start, end).tolist() == [30, 30, 10, 30]


def test_self_times_partition_the_root_spans():
    parent = np.array([NO_PARENT, 0, 1, 0, NO_PARENT], dtype=np.int32)
    start = np.array([0, 10, 20, 60, 200], dtype=np.int64)
    end = np.array([100, 50, 30, 90, 250], dtype=np.int64)
    assert self_times(parent, start, end).sum() == 100 + 50


class Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.spend(1)
        self.inner()
        self.clock.spend(2)
        self.inner()
        self.clock.spend(3)
        return "done"

    def inner(self):
        self.clock.spend(4)
        self.leaf()
        self.clock.spend(1)

    def leaf(self):
        self.clock.spend(7)


def traced_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    layer = Layer(clock)
    tracer.wrap(layer, "inner", "b.inner")
    tracer.wrap(layer, "leaf", "c.leaf")
    outer = tracer.wrap_callable(layer.outer, "a.outer")
    return tracer, layer, outer


def test_nested_and_sibling_spans_are_recorded_with_parents():
    tracer, _, outer = traced_layer()
    tracer.current_task = 5
    assert outer() == "done"
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["a.outer", "b.inner", "c.leaf", "b.inner", "c.leaf"]
    assert list(tracer.parent) == [NO_PARENT, 0, 1, 0, 3]
    assert list(tracer.task) == [5] * 5
    assert [e - s for s, e in zip(tracer.start, tracer.end)] == [
        30, 12, 7, 12, 7,
    ]


def test_summary_attributes_self_time_per_name_and_layer():
    tracer, _, outer = traced_layer()
    outer()
    summary = SpanSummary(tracer)
    assert summary.self_ns == {"a.outer": 6, "b.inner": 10, "c.leaf": 14}
    assert summary.calls == {"a.outer": 1, "b.inner": 2, "c.leaf": 2}
    assert summary.layer_self_ns == {"a": 6, "b": 10, "c": 14}
    assert summary.covered_ns == 30
    assert summary.durations_of("b.inner").tolist() == [12, 12]
    assert summary.durations_of("z.never").tolist() == []


def test_after_hook_sees_arguments_and_result_outside_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def work(n):
        clock.spend(n)
        return n * 2

    def after(args, result):
        clock.spend(100)  # charged to nobody: the span has closed
        seen.append((args, result))

    traced = tracer.wrap_callable(work, "x.work", after=after)
    assert traced(3) == 6
    assert seen == [((3,), 6)]
    assert tracer.end[0] - tracer.start[0] == 3


def test_an_exception_closes_its_span_and_propagates():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    traced = tracer.wrap_callable(boom, "x.boom")
    with pytest.raises(KeyError):
        traced()
    after = tracer.wrap_callable(lambda: None, "x.after")
    after()
    assert list(tracer.parent) == [NO_PARENT, NO_PARENT]


def test_spans_save_and_load(tmp_path):
    tracer, _, outer = traced_layer()
    outer()
    path = tmp_path / "spans.npz"
    tracer.save(path)
    with np.load(path) as data:
        names = [data["names"][i] for i in data["name"]]
        assert names == ["a.outer", "b.inner", "c.leaf", "b.inner", "c.leaf"]
        assert data["parent"].tolist() == [NO_PARENT, 0, 1, 0, 3]
        assert (data["end"] - data["start"]).tolist() == [30, 12, 7, 12, 7]
