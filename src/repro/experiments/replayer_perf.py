"""Replayer-layer throughput across match engines.

The serving path's dominant cost after the PR 1/2 mining work was the
replayer's trie advance (~25% of per-task time on pointer-heavy
streams): the seed matcher keeps one explicit pointer per live match
attempt and re-walks every one of them on every token. This module
measures how many tokens per second the :class:`TraceReplayer` itself
serves -- candidates pre-ingested, no mining, no runtime -- for each
registered match engine, on the workloads where pointer pressure is
real:

* a synthetic *periodic 8-candidate* stream (one short-period cycle,
  eight candidates spanning one to eight periods at assorted phase
  shifts -- the shape that makes pointers pile up at every phase);
* captured application hash-token streams (jacobi / stencil by
  default), with their top mined candidates ingested, exactly what an
  :class:`ApopheniaProcessor` would hand its replayer at steady state.

The ``scan`` engine is the frozen seed baseline (see
:class:`~repro.core.matching.ScanMatchEngine`); the speedup floor the
perf suite enforces is measured against it.

Used by ``benchmarks/test_perf_replayer.py``; also runnable standalone::

    PYTHONPATH=src python -m repro.experiments.replayer_perf
    PYTHONPATH=src python -m repro.experiments replayer
"""

import time

from repro.core.hashing import TaskHasher
from repro.core.matching import MATCH_ENGINES
from repro.core.repeats import Repeat, find_repeats
from repro.core.replayer import TraceReplayer


def periodic_stream(period=8, num_candidates=8, num_tokens=20000):
    """The pathological pointer-ladder workload: ``(stream, repeats)``.

    The stream repeats one ``period``-token cycle; the candidate set
    holds ``num_candidates`` multiples of that cycle (four through
    twenty-four periods) at assorted phase shifts, as successive
    full-buffer minings of a periodic stream would surface them. Every
    phase of every multiple keeps an active pointer alive in the seed
    matcher (~40 deep here), so the per-token pointer walk re-pays the
    whole ladder while the deduplicated engine advances one automaton
    state.
    """
    def unit(shift):
        return [(i + shift) % period for i in range(period)]

    stream = unit(0) * (num_tokens // period)
    specs = [(4, 0), (6, 4), (8, 0), (10, 4), (12, 0), (16, 4), (20, 0),
             (24, 4)]
    repeats = []
    for mult, shift in specs[:num_candidates]:
        tokens = tuple(unit(shift) * mult)
        repeats.append(
            Repeat(tokens, list(range(0, 2 * len(tokens), len(tokens))))
        )
    return stream, repeats


def app_stream_workload(app_name, num_tokens=20000, window=1000,
                        num_candidates=8, min_length=5):
    """A captured application workload: ``(stream, repeats)``.

    ``stream`` is the application's hash-token stream exactly as the
    processor's :class:`~repro.core.hashing.TaskHasher` produces it;
    ``repeats`` are the ``num_candidates`` highest-coverage repeats
    Algorithm 2 mines from the stream's first ``window`` tokens.
    """
    from repro.experiments.multi_tenant import capture_stream

    hasher = TaskHasher()
    stream = [
        hasher.hash_task(task)
        for _, task in capture_stream(app_name, num_tokens)
    ]
    repeats = sorted(
        find_repeats(stream[:window], min_length),
        key=lambda r: -r.covered,
    )[:num_candidates]
    return stream, repeats


class ReplayerMeasurement:
    """Throughput of one match engine over one workload."""

    __slots__ = ("engine", "tokens_per_sec", "seconds", "stats")

    def __init__(self, engine, tokens_per_sec, seconds, stats):
        self.engine = engine
        self.tokens_per_sec = tokens_per_sec
        self.seconds = seconds
        self.stats = stats

    def __repr__(self):
        return (
            f"ReplayerMeasurement({self.engine}: "
            f"{self.tokens_per_sec:,.0f} tok/s)"
        )


def measure_replayer_throughput(stream, repeats, engines=None, rounds=3,
                                min_trace_length=5):
    """Time the replayer per engine; returns ``{engine: measurement}``.

    Each round runs every engine once (so drift hits them alike); each
    engine reports its best round (minimum wall-clock). Candidates are
    ingested outside the timed region -- this measures the serving
    path, not discovery. Every round's decision stream is asserted
    identical across engines: a "faster" engine that changes decisions
    is wrong, not fast.
    """
    if engines is None:
        engines = list(MATCH_ENGINES)
    best = {}
    reference = None
    for _ in range(rounds):
        for name in engines:
            fired = []
            replayer = TraceReplayer(
                on_flush=lambda tasks: None,
                on_trace=lambda cand, chunk, tasks:
                    fired.append((cand.trace_id, chunk, len(tasks))),
                min_trace_length=min_trace_length,
                match_engine=name,
            )
            replayer.ingest(repeats)
            start = time.perf_counter()
            for token in stream:
                replayer.process(None, token)
            replayer.flush_all()
            elapsed = time.perf_counter() - start
            stats = replayer.stats
            decisions = (tuple(fired), stats.decision_tuple())
            if reference is None:
                reference = decisions
            elif decisions != reference:
                raise AssertionError(
                    f"match engine {name!r} diverged from "
                    f"{engines[0]!r} on this workload"
                )
            if name not in best or elapsed < best[name][0]:
                best[name] = (elapsed, stats)
    return {
        name: ReplayerMeasurement(
            name, len(stream) / elapsed if elapsed else 0.0, elapsed, stats
        )
        for name, (elapsed, stats) in best.items()
    }


def workloads(num_tokens=20000, apps=("jacobi", "stencil")):
    """The named workload suite: ``{name: (stream, repeats)}``."""
    suite = {"periodic-8": periodic_stream(num_tokens=num_tokens)}
    for app in apps:
        suite[app] = app_stream_workload(app, num_tokens=num_tokens)
    return suite


def main():
    for name, (stream, repeats) in workloads().items():
        results = measure_replayer_throughput(stream, repeats)
        seed = results["scan"].tokens_per_sec
        print(f"{name} ({len(stream)} tokens, "
              f"{len(repeats)} candidates, lens "
              f"{[r.length for r in repeats]}):")
        for engine, m in sorted(
            results.items(), key=lambda kv: kv[1].tokens_per_sec
        ):
            speedup = m.tokens_per_sec / seed if seed else float("inf")
            print(
                f"  {engine:10s} {m.seconds * 1e3:8.2f} ms  "
                f"{m.tokens_per_sec:12,.0f} tok/s  {speedup:5.2f}x  "
                f"(peak {m.stats.active_pointer_peak} pointers, "
                f"{m.stats.pointer_collapses} collapses)"
            )


if __name__ == "__main__":
    main()
