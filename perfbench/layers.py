"""The traced pass: which layer methods get wrapped, and what they report.

:class:`LayerProbe` wraps, on each session of a pass, the public methods
through which one layer calls the next (the blocking path of
``Session.submit``), and takes boundary counts where the work happens:
ingest lag as jobs are drained, hold time as tasks reach the runtime,
tokens as windows are mined, queue depth as the service queues jobs.
:func:`per_layer_metrics` turns the spans and counts into the per-layer
metrics listed in ``BENCHMARK.json``.

Span names are ``<layer>.<method>``; a layer's self time is the summed
self time of its spans. Time the wrappers do not cover -- the processor
glue in ``ApopheniaProcessor.execute_task``, the facade, the service's
routing -- is self time of the enclosing ``api`` span.
"""

from statistics import median

from perfbench.percentiles import percentile
from perfbench.spans import SpanSummary, Tracer
from perfbench.workloads import interleave

#: Every layer the traced pass attributes time to.
LAYERS = ("api", "hashing", "finder", "jobs", "repeats", "replayer",
          "matching", "scoring", "candidates", "runtime", "service")

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("api.self_us_per_task", "us"),
    ("hashing.calls", "count"),
    ("hashing.self_us_per_task", "us"),
    ("hashing.cache_hit_rate", "ratio"),
    ("finder.self_us_per_task", "us"),
    ("finder.jobs_submitted", "count"),
    ("finder.tokens_windowed", "count"),
    ("finder.ingest_lag_ops_p50", "ops"),
    ("jobs.memo_hit_rate", "ratio"),
    ("jobs.self_s", "s"),
    ("repeats.calls", "count"),
    ("repeats.tokens", "count"),
    ("repeats.self_s", "s"),
    ("repeats.ms_p50", "ms"),
    ("replayer.self_us_per_task", "us"),
    ("replayer.traces_fired", "count"),
    ("replayer.tasks_flushed", "count"),
    ("replayer.deferrals", "count"),
    ("replayer.hold_tasks_p50", "tasks"),
    ("replayer.hold_tasks_p99", "tasks"),
    ("matching.calls", "count"),
    ("matching.self_us_per_call", "us"),
    ("matching.active_pointer_peak", "count"),
    ("matching.pointer_collapses", "count"),
    ("scoring.select_calls", "count"),
    ("scoring.worth_waiting_calls", "count"),
    ("scoring.self_s", "s"),
    ("scoring.hysteresis_suppressed", "count"),
    ("candidates.ingested", "count"),
    ("candidates.ingest_self_s", "s"),
    ("runtime.self_us_per_task", "us"),
    ("runtime.traces_replayed", "count"),
    ("runtime.mean_trace_len", "tasks"),
    ("runtime.baseline_tasks_per_s", "tasks/s"),
    ("service.self_s", "s"),
    ("service.memo_hit_rate", "ratio"),
    ("service.outstanding_peak", "count"),
    ("service.quota_stalls", "count"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)


class LayerProbe:
    """Wraps one pass's layers and gathers its boundary counts."""

    def __init__(self):
        self.tracer = Tracer()
        self.submit_index = {}  # task uid -> its submit's sequence number
        self.holds = []  # later submits before a task reached the runtime
        self.ingest_lags = []  # ops from a job's submit to its ingest
        self.mined_tokens = 0
        self.traces_replayed = 0
        self.outstanding_peak = 0
        self.counts = {}
        self._service = None

    def instrument(self, service, sessions, streams):
        """Wrap every session's layers; return traced submits and flushes."""
        order = interleave(streams, {sid: sid for sid in streams})
        self.submit_index = {task.uid: i for i, (_, task) in enumerate(order)}
        self._service = service
        wrap = self.tracer.wrap
        for session in sessions.values():
            processor = session.processor
            wrap(processor.hasher, "hash_task", "hashing.hash_task")
            wrap(processor.finder, "observe", "finder.observe")
            wrap(processor.finder, "drain_completed", "finder.drain_completed",
                 after=self._drained)
            if service is None:
                wrap(processor.executor, "submit", "jobs.submit")
                self._wrap_mining(processor.executor)
            else:
                wrap(processor.executor, "submit", "service.lane_submit",
                     after=self._queued)
            replayer = processor.replayer
            wrap(replayer, "process", "replayer.process")
            wrap(replayer, "flush_all", "replayer.flush_all")
            wrap(replayer, "ingest", "candidates.ingest")
            wrap(replayer.engine, "advance", "matching.advance")
            wrap(replayer.policy, "select", "scoring.select")
            wrap(replayer.policy, "worth_waiting", "scoring.worth_waiting")
            runtime = processor.runtime
            wrap(runtime, "charge_launch", "runtime.charge_launch")
            wrap(runtime, "execute_task", "runtime.execute_task",
                 after=self._arrived)
            wrap(runtime, "begin_trace", "runtime.begin_trace")
            wrap(runtime, "end_trace", "runtime.end_trace",
                 after=self._trace_ended)
        if service is not None:
            wrap(service.executor, "pump", "service.pump")
            self._wrap_mining(service.executor)
        traced = self.tracer.wrap_callable
        submits = {sid: traced(s.submit, "api.submit")
                   for sid, s in sessions.items()}
        flushes = [traced(s.flush, "api.flush") for s in sessions.values()]
        return submits, flushes

    def _wrap_mining(self, executor):
        if executor.memo is not None:
            self.tracer.wrap(executor.memo, "mine", "jobs.memo_mine")
        self.tracer.wrap(executor, "repeats_algorithm", "repeats.find_repeats",
                         after=self._mined)

    # -- boundary counts ---------------------------------------------------
    def _drained(self, args, jobs):
        now_op = args[0]
        self.ingest_lags.extend(now_op - job.submitted_at_op for job in jobs)

    def _queued(self, args, job):
        outstanding = self._service.executor.outstanding
        if outstanding > self.outstanding_peak:
            self.outstanding_peak = outstanding

    def _arrived(self, args, result):
        submitted = self.submit_index[args[0].uid]
        self.holds.append(self.tracer.current_task - submitted)

    def _trace_ended(self, args, kind):
        if kind == "replayed":
            self.traces_replayed += 1

    def _mined(self, args, repeats):
        self.mined_tokens += len(args[0])

    def collect(self, service, sessions):
        """Read the sessions' own counters (before they close)."""
        stats = [s.stats() for s in sessions.values()]
        processors = [s.processor for s in sessions.values()]
        lengths = [n for p in processors for _, n in p.trace_log]
        self.counts = {
            "hashes_computed": sum(p.hasher.hashes_computed
                                   for p in processors),
            "jobs": sum(st.jobs_submitted for st in stats),
            "tokens_windowed": sum(st.tokens_analyzed for st in stats),
            "memo_hits": sum(st.memo_hits for st in stats),
            "traces_fired": sum(st.traces_fired for st in stats),
            "tasks_flushed": sum(st.tasks_flushed for st in stats),
            "deferrals": sum(st.deferrals for st in stats),
            "candidates_ingested": sum(st.candidates_ingested for st in stats),
            "active_pointer_peak": max(st.active_pointer_peak for st in stats),
            "pointer_collapses": sum(st.pointer_collapses for st in stats),
            "hysteresis_suppressed": sum(st.hysteresis_suppressed
                                         for st in stats),
            "quota_stalls": sum(st.quota_stalls for st in stats),
            "mean_trace_len": sum(lengths) / len(lengths) if lengths else 0.0,
            "service_memo_hit_rate": (
                service.executor.memo_hit_rate if service is not None else 0.0
            ),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(probe, traced, untraced_wall_s, baseline):
    """``{name: value}`` for every :data:`PER_LAYER` metric.

    ``traced`` is the traced pass's result, ``untraced_wall_s`` the
    median wall time of the timed passes over the same stream at the
    nominal speed, and ``baseline`` the no-Apophenia pass. Times are raw
    wall time, except that the tracing overhead compares the traced and
    untraced passes at the nominal speed.
    """
    spans = SpanSummary(probe.tracer)
    counts = probe.counts
    tasks = traced.tasks
    wall = traced.wall_s

    def per_task_us(layer):
        return spans.layer_s(layer) / tasks * 1e6

    hash_calls = spans.calls_of("hashing.hash_task")
    advance_calls = spans.calls_of("matching.advance")
    mined = spans.durations_of("repeats.find_repeats")
    holds = sorted(probe.holds)
    values = {
        "api.self_us_per_task": per_task_us("api"),
        "hashing.calls": hash_calls,
        "hashing.self_us_per_task": per_task_us("hashing"),
        "hashing.cache_hit_rate": 1 - _ratio(counts["hashes_computed"],
                                             hash_calls),
        "finder.self_us_per_task": per_task_us("finder"),
        "finder.jobs_submitted": counts["jobs"],
        "finder.tokens_windowed": counts["tokens_windowed"],
        "finder.ingest_lag_ops_p50": (
            median(probe.ingest_lags) if probe.ingest_lags else 0
        ),
        "jobs.memo_hit_rate": _ratio(counts["memo_hits"], counts["jobs"]),
        "jobs.self_s": spans.layer_s("jobs"),
        "repeats.calls": spans.calls_of("repeats.find_repeats"),
        "repeats.tokens": probe.mined_tokens,
        "repeats.self_s": spans.layer_s("repeats"),
        "repeats.ms_p50": percentile(mined, 50) / 1e6 if len(mined) else 0.0,
        "replayer.self_us_per_task": per_task_us("replayer"),
        "replayer.traces_fired": counts["traces_fired"],
        "replayer.tasks_flushed": counts["tasks_flushed"],
        "replayer.deferrals": counts["deferrals"],
        "replayer.hold_tasks_p50": percentile(holds, 50) if holds else 0,
        "replayer.hold_tasks_p99": percentile(holds, 99) if holds else 0,
        "matching.calls": advance_calls,
        "matching.self_us_per_call": _ratio(spans.layer_s("matching") * 1e6,
                                            advance_calls),
        "matching.active_pointer_peak": counts["active_pointer_peak"],
        "matching.pointer_collapses": counts["pointer_collapses"],
        "scoring.select_calls": spans.calls_of("scoring.select"),
        "scoring.worth_waiting_calls": spans.calls_of("scoring.worth_waiting"),
        "scoring.self_s": spans.layer_s("scoring"),
        "scoring.hysteresis_suppressed": counts["hysteresis_suppressed"],
        "candidates.ingested": counts["candidates_ingested"],
        "candidates.ingest_self_s": spans.layer_s("candidates"),
        "runtime.self_us_per_task": per_task_us("runtime"),
        "runtime.traces_replayed": probe.traces_replayed,
        "runtime.mean_trace_len": counts["mean_trace_len"],
        "runtime.baseline_tasks_per_s": baseline.tasks_per_s,
        "service.self_s": spans.layer_s("service"),
        "service.memo_hit_rate": counts["service_memo_hit_rate"],
        "service.outstanding_peak": probe.outstanding_peak,
        "service.quota_stalls": counts["quota_stalls"],
        "trace.overhead_frac": wall / traced.slowdown / untraced_wall_s - 1,
        "trace.coverage": spans.covered_ns / 1e9 / wall,
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = spans.layer_s(layer) / wall
    return values
