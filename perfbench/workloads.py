"""The benchmark's workloads and one closed-loop pass over a stream.

Every pass builds its stream fresh -- new ``Task`` objects whose
signatures are not yet built, as an application hands them over -- opens
its sessions through :func:`repro.api.open_session`, and then issues the
tasks one by one: the next ``submit`` starts only after the previous one
returned (a closed loop with one client per session, all from one
thread). After the final ``flush`` it checks conservation and delivery
per session and takes each session's decision digest.

Runtimes are built here, not by the backends, so every session and the
no-Apophenia baseline run the same runtime shape: ``fast`` analysis (the
mode the backends default to), ``fallback`` on trace mismatch, and a task
log, which is what lets the benchmark check that every submitted task
reached the runtime exactly once.
"""

import gc
import time
import traceback
from collections import Counter
from statistics import median

from repro.api import ApopheniaService, build_config, open_session
from repro.apps.base import build_app
from repro.apps.generative import PHASE_GRAPHS
from repro.apps.jacobi import jacobi_task_stream
from repro.runtime.region import RegionForest
from repro.runtime.runtime import Runtime
from repro.trace.corpus import generative_stream

from perfbench.calibration import NOMINAL_S, calibration_s
from perfbench.percentiles import percentile, tail_summary

#: Submits between two calibration samples inside a pass.
CALIBRATE_EVERY = 10_000

#: Fleet tenants: two each of the paper's apps, in the order of
#: ``repro.experiments.multi_tenant.TENANT_APPS``.
FLEET_APPS = ("s3d", "stencil", "jacobi", "cfd") * 2


def new_runtime():
    return Runtime(analysis_mode="fast", mismatch_policy="fallback",
                   keep_task_log=True)


class _Capture:
    """An executor that keeps the tasks it is handed."""

    def __init__(self):
        self.tasks = []

    def execute_task(self, task):
        self.tasks.append(task)


def app_tasks(app_name, count):
    """The first ``count`` tasks of a registered app, signatures unbuilt.

    The same stream as
    :func:`repro.experiments.multi_tenant.capture_stream` (4 GPUs, task
    scale 0.1), without that helper's signature pre-warm: here the first
    ``hash_task`` of each task pays for ``Task.signature()``, as it does
    for a real application.
    """
    capture = _Capture()
    if app_name == "jacobi":
        # Three tasks per iteration, after a few set-up tasks.
        jacobi_task_stream(capture, RegionForest(), iterations=count // 3 + 1)
    else:
        app = build_app(app_name, mode="untraced", gpus=4, task_scale=0.1,
                        keep_task_log=False)
        app.executor = capture
        if hasattr(app, "ctx"):  # array-layer apps bound it at set-up
            app.ctx.executor = capture
        index = 0
        while len(capture.tasks) < count:
            app.iteration(index)
            index += 1
    if len(capture.tasks) < count:
        raise ValueError(
            f"{app_name} produced {len(capture.tasks)} tasks, wanted {count}"
        )
    return capture.tasks[:count]


class Workload:
    """A named stream family plus the deployment that serves it."""

    def __init__(self, name, why, tasks, uses_seed):
        self.name = name
        self.why = why
        #: Tasks per pass, summed over sessions.
        self.tasks = tasks
        self.uses_seed = uses_seed

    def streams(self, seed, tasks):
        """``{session_id: [Task, ...]}``, freshly built."""
        raise NotImplementedError

    def open_sessions(self, session_ids):
        """``(service or None, {session_id: Session})``."""
        raise NotImplementedError


class GenerativeWorkload(Workload):
    """One phase-graph stream on one standalone ``paper-default`` session."""

    def __init__(self, name, why, tasks, graph, uses_seed):
        super().__init__(name, why, tasks, uses_seed)
        self.graph = graph

    def streams(self, seed, tasks):
        graph = PHASE_GRAPHS[self.graph]
        if self.uses_seed:
            graph = graph.with_seed(seed)
        stream = generative_stream(graph, tasks)
        return {self.name: [task for _, task in stream]}

    def open_sessions(self, session_ids):
        return None, {
            sid: open_session(sid, backend="standalone",
                              profile="paper-default", env={},
                              runtime=new_runtime())
            for sid in session_ids
        }


class FleetWorkload(Workload):
    """Eight app tenants on one ``service``-profile ApopheniaService."""

    def streams(self, seed, tasks):
        del seed  # the apps' streams have no random draws
        per_tenant = tasks // len(FLEET_APPS)
        return {
            f"{app}-{i}": app_tasks(app, per_tenant)
            for i, app in enumerate(FLEET_APPS)
        }

    def open_sessions(self, session_ids):
        service = ApopheniaService(build_config(profile="service", env={}))
        return service, {
            sid: open_session(sid, backend=service, runtime=new_runtime())
            for sid in session_ids
        }


WORKLOADS = {
    w.name: w for w in (
        GenerativeWorkload(
            "steady",
            "periodic stream: the memo answers almost every mining job, so "
            "the per-task serving path (hashing, scoring, replay) dominates",
            tasks=50_000, graph="steady", uses_seed=False,
        ),
        GenerativeWorkload(
            "adversarial",
            "seeded drift and bursts make every mining window new, so "
            "Algorithm 2 and the match engine dominate",
            tasks=50_000, graph="adversarial", uses_seed=True,
        ),
        FleetWorkload(
            "fleet",
            "eight paper-app tenants interleaved on one service: the only "
            "workload on the shared executor, lanes and cross-tenant memo",
            tasks=50_000, uses_seed=False,
        ),
    )
}


def interleave(streams, calls):
    """``[(calls[sid], task), ...]`` taking one task per session in turn."""
    order = []
    live = [(calls[sid], iter(stream)) for sid, stream in streams.items()]
    while live:
        still = []
        for call, tasks in live:
            task = next(tasks, None)
            if task is not None:
                order.append((call, task))
                still.append((call, tasks))
        live = still
    return order


class PassResult:
    """What one pass over a workload's stream measured and checked."""

    def __init__(self):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.tasks = 0
        self.latency = None  # submit latency summary (timed passes only)
        self.failed_tasks = 0
        self.problems = []  # failed correctness checks, as messages
        self.digests = {}  # session_id -> SessionSnapshot.stable_digest()
        self.tasks_traced = 0
        self.tasks_seen = 0
        self.virtual_s = 0.0
        self.calibration_s = None  # median sample, see calibration.py

    @property
    def tasks_per_s(self):
        return self.tasks / self.wall_s

    @property
    def slowdown(self):
        """How much slower than nominal the machine ran this pass."""
        return self.calibration_s / NOMINAL_S

    @property
    def replay_fraction(self):
        return self.tasks_traced / self.tasks_seen if self.tasks_seen else 0.0


def run_pass(workload, seed, tasks=None, probe=None):
    """One closed-loop pass; with a ``probe``, the traced variant.

    The timed variant records each ``submit``'s wall time; the traced
    variant instead lets ``probe`` wrap the layers and record spans.
    Throughput is timed from the first ``submit`` to the end of the
    final ``flush`` in both.
    """
    result = PassResult()
    clock = time.perf_counter_ns
    began = clock()
    streams = workload.streams(seed, tasks or workload.tasks)
    service, sessions = workload.open_sessions(list(streams))
    submits = {sid: s.submit for sid, s in sessions.items()}
    flushes = [s.flush for s in sessions.values()]
    if probe is not None:
        submits, flushes = probe.instrument(service, sessions, streams)
    order = interleave(streams, submits)
    result.setup_s = (clock() - began) / 1e9
    result.tasks = len(order)
    try:
        samples = []
        gc.collect()
        if probe is None:
            result.wall_s, latencies = _timed_loop(
                order, flushes, result, samples
            )
        else:
            result.wall_s = _traced_loop(
                order, flushes, result, samples, probe.tracer
            )
        _calibrate(samples)
        result.calibration_s = median(samples)
        if probe is None:
            latencies.sort()
            tail = tail_summary(latencies, 99.9)
            result.latency = {
                "p50_us": percentile(latencies, 50) / 1e3,
                "p999_us": tail["value"] / 1e3,
                "samples": tail["samples"],
                "beyond_p999": tail["beyond"],
            }
        _check(result, streams, sessions)
        if probe is not None:
            probe.collect(service, sessions)
    finally:
        for session in sessions.values():
            session.close()
    return result


def _record_failure(result, what):
    result.problems.append(f"{what}: {traceback.format_exc(limit=4)}")


def _calibrate(samples):
    """Append one calibration time; return the wall time it took (ns)."""
    began = time.perf_counter_ns()
    samples.append(calibration_s(repeats=1))
    return time.perf_counter_ns() - began


def _timed_loop(order, flushes, result, samples):
    """Serve ``order``; returns (wall seconds, per-submit ns latencies).

    Every :data:`CALIBRATE_EVERY` submits the loop pauses for one
    calibration sample; the pauses are not part of the wall time.
    """
    latencies = [0] * len(order)
    clock = time.perf_counter_ns
    paused = 0
    start = clock()
    for first in range(0, len(order), CALIBRATE_EVERY):
        paused += _calibrate(samples)
        for i in range(first, min(first + CALIBRATE_EVERY, len(order))):
            submit, task = order[i]
            began = clock()
            try:
                submit(task)
            except Exception:  # counted per task; the stream goes on
                result.failed_tasks += 1
                _record_failure(result, f"submit #{i}")
            latencies[i] = clock() - began
    _flush_all(flushes, result)
    return (clock() - start - paused) / 1e9, latencies


def _traced_loop(order, flushes, result, samples, tracer):
    """Like :func:`_timed_loop`, with each submit stamped on its spans."""
    clock = time.perf_counter_ns
    paused = 0
    start = clock()
    for first in range(0, len(order), CALIBRATE_EVERY):
        paused += _calibrate(samples)
        for i in range(first, min(first + CALIBRATE_EVERY, len(order))):
            submit, task = order[i]
            tracer.current_task = i
            try:
                submit(task)
            except Exception:  # counted per task; the stream goes on
                result.failed_tasks += 1
                _record_failure(result, f"submit #{i}")
    tracer.current_task = len(order)
    _flush_all(flushes, result)
    return (clock() - start - paused) / 1e9


def _flush_all(flushes, result):
    for flush in flushes:
        try:
            flush()
        except Exception:  # the delivery check counts what it stranded
            _record_failure(result, "flush")


def _check(result, streams, sessions):
    """Per session: conservation, exactly-once delivery, decision digest."""
    for sid, session in sessions.items():
        stream = streams[sid]
        runtime = session.runtime
        stats = session.stats()
        if runtime.tasks_launched != len(stream):
            result.problems.append(
                f"{sid}: runtime launched {runtime.tasks_launched} tasks "
                f"for {len(stream)} submitted"
            )
        if stats.tasks_seen != len(stream) or (
            stats.tasks_traced + stats.tasks_flushed != stats.tasks_seen
        ):
            result.problems.append(
                f"{sid}: traced {stats.tasks_traced} + flushed "
                f"{stats.tasks_flushed} != seen {stats.tasks_seen} "
                f"(submitted {len(stream)})"
            )
        arrivals = Counter(record.uid for record in runtime.task_log)
        delivered = sum(1 for task in stream if arrivals[task.uid] == 1)
        if len(runtime.task_log) != delivered:
            result.problems.append(
                f"{sid}: runtime ran {len(runtime.task_log)} tasks, "
                f"{delivered} of {len(stream)} submitted exactly once"
            )
        result.failed_tasks += len(stream) - delivered
        result.digests[sid] = session.snapshot().stable_digest()
        result.tasks_traced += stats.tasks_traced
        result.tasks_seen += stats.tasks_seen
        result.virtual_s += runtime.total_time


class BaselineResult:
    """The same stream issued straight to runtimes, no Apophenia."""

    def __init__(self, wall_s, tasks, virtual_s, problems):
        self.wall_s = wall_s
        self.tasks = tasks
        self.virtual_s = virtual_s
        self.problems = problems

    @property
    def tasks_per_s(self):
        return self.tasks / self.wall_s


def run_baseline(workload, seed, tasks=None):
    """Issue a fresh copy of the stream to ``Runtime.execute_task``.

    Each launch is charged at the untraced cost, with the same runtime
    shape the sessions get, so the virtual time is the like-for-like
    denominator of the modeled speed-up.
    """
    streams = workload.streams(seed, tasks or workload.tasks)
    runtimes = {sid: new_runtime() for sid in streams}
    order = interleave(
        streams, {sid: rt.execute_task for sid, rt in runtimes.items()}
    )
    gc.collect()
    start = time.perf_counter_ns()
    for execute, task in order:
        execute(task)
    wall_s = (time.perf_counter_ns() - start) / 1e9
    problems = [
        f"{sid}: baseline runtime launched {rt.tasks_launched} of "
        f"{len(streams[sid])} tasks"
        for sid, rt in runtimes.items()
        if rt.tasks_launched != len(streams[sid])
        or len(rt.task_log) != len(streams[sid])
    ]
    virtual_s = sum(rt.total_time for rt in runtimes.values())
    return BaselineResult(wall_s, len(order), virtual_s, problems)
