"""Outside-in span recording: wrap a layer's public methods, time each call.

A :class:`Tracer` replaces a bound method on one object with a wrapper
that records a span per call -- name, start, end, parent span and the
submit (task) in progress -- into flat in-memory columns. Nothing in
the program under test changes: the wrapper is an instance attribute set
from the benchmark's own code, and it passes arguments and return values
through untouched.

The front-end is single-threaded and synchronous, so spans nest
strictly: a span's children are disjoint and lie inside it. A span's
*self time* is therefore its duration minus the summed durations of its
direct children, and the self times of all spans partition the time the
root spans cover exactly.
"""

import time
from array import array

import numpy as np

#: ``parent`` value of a root span.
NO_PARENT = -1


class Tracer:
    """Records spans from wrapped callables into column arrays."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []  # name id -> span name
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        #: Submit in progress; stamped on every span opened meanwhile.
        self.current_task = NO_PARENT

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap_callable(self, fn, name, after=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``after(args, result)`` runs once the span has closed, so a
        boundary count it takes is charged to the caller's self time,
        not to the layer being measured.
        """
        nid = self.name_id(name)
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends, stack = self.start, self.end, self._stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            tasks.append(tracer.current_task)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap(self, obj, attr, name, after=None):
        """Shadow ``obj.attr`` with a traced version of itself."""
        setattr(obj, attr, self.wrap_callable(getattr(obj, attr), name, after))

    def columns(self):
        """The spans as numpy columns (see :func:`self_times`)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path):
        """Write the spans and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(parent, start, end):
    """Per-span self time: duration minus the direct children's durations."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered.astype(np.int64)


def layer_of(name):
    """``"matching.advance"`` -> ``"matching"``."""
    return name.split(".", 1)[0]


class SpanSummary:
    """Per-name and per-layer totals of one traced pass, in nanoseconds."""

    def __init__(self, tracer):
        cols = tracer.columns()
        selfs = self_times(cols["parent"], cols["start"], cols["end"])
        self._names = cols["name"]
        self._durations = cols["end"] - cols["start"]
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        count = len(tracer.names)
        calls = np.bincount(self._names, minlength=count)
        self_ns = np.bincount(self._names, weights=selfs, minlength=count)
        self.calls = {n: int(calls[i]) for n, i in self._ids.items()}
        self.self_ns = {n: int(self_ns[i]) for n, i in self._ids.items()}
        self.covered_ns = int(selfs.sum())
        self.layer_self_ns = {}
        for name, ns in self.self_ns.items():
            layer = layer_of(name)
            self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + ns

    def durations_of(self, name):
        """Sorted durations of the spans named ``name`` (maybe empty)."""
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._durations[self._names == nid])

    def layer_s(self, layer):
        return self.layer_self_ns.get(layer, 0) / 1e9

    def calls_of(self, name):
        return self.calls.get(name, 0)
