"""A fixed calibration loop, and timings normalized by it.

The machine this benchmark was built on is shared: back-to-back passes
of the same code ran up to 2.3x apart, with CPU time moving with wall
time (the processor's speed changed, the process was not descheduled),
and the medians of whole runs drifted by about 20%. The calibration
loop does interpreter work of the same kind as the front-end (a trie of
slotted objects, tuple-keyed dict counting, a sort) using none of the
program's code, so a change to the program cannot move it. A pass times
it every :data:`~perfbench.workloads.CALIBRATE_EVERY` submits, outside
its timed intervals; the pass's *slowdown* is the median of those times
over :data:`NOMINAL_S`. Dividing a pass's times by its slowdown gives
them at the nominal speed, which cancels most of the machine's drift.

The loop's size is chosen so that its speed moves with the front-end's:
over passes of the fleet stream, log throughput moved 0.83-0.91 times as
far as the log calibration time, against about 0.6 for a loop a third
the size, which over-corrects when the machine runs fast.
"""

import gc
import random
import time

#: The calibration time the normalized metrics are expressed at: on the
#: 2-vCPU machine this benchmark was built on, the loop took 17-30 ms.
NOMINAL_S = 0.025


class _Node:
    __slots__ = ("children", "count")

    def __init__(self):
        self.children = {}
        self.count = 0


def _loop(tokens):
    root = _Node()
    for i in range(0, len(tokens) - 8, 3):
        node = root
        for token in tokens[i:i + 8]:
            child = node.children.get(token)
            if child is None:
                child = node.children[token] = _Node()
            child.count += 1
            node = child
    counts = {}
    for i in range(len(tokens) - 4):
        key = tuple(tokens[i:i + 4])
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:100]


def _tokens():
    rng = random.Random(7)
    return [rng.randrange(40) for _ in range(6000)]


_TOKENS = _tokens()


def calibration_s(repeats=3):
    """Median time of ``repeats`` runs of the calibration loop.

    The collector is off while it runs, so the size of the program's
    heap cannot reach into the measurement.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _loop(_TOKENS)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]
