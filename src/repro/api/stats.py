"""Uniform structured session statistics.

Before this surface existed, callers poked backend internals --
``processor.stats.as_tuple()`` for the replayer counters,
``processor.executor.memo_hits`` for memo reuse,
``session.lane.memo_hits`` on the service, ``service.sessions_evicted``
for eviction pressure -- with a different spelling per deployment.
:class:`SessionStats` is one frozen snapshot with the same fields
whichever backend served the session, and
:func:`collect_session_stats` knows how to read every backend's handle
shape (a bare :class:`~repro.core.processor.ApopheniaProcessor` or a
service :class:`~repro.service.service.SessionHandle`).
"""

from dataclasses import dataclass
from typing import Optional

#: Field order of the decision-determined replayer-counter slice,
#: matching :meth:`repro.core.replayer.ReplayerStats.decision_tuple`.
_REPLAYER_FIELDS = (
    "tasks_seen",
    "tasks_flushed",
    "tasks_traced",
    "traces_fired",
    "candidates_ingested",
    "deferrals",
)

#: Serving-path gauges carried on the same ``ReplayerStats`` object but
#: *not* decision-determined: they describe how the match engine and the
#: scoring hysteresis did the work, and may differ between engines.
_SERVING_FIELDS = (
    "active_pointer_peak",
    "pointer_collapses",
    "hysteresis_suppressed",
)


@dataclass(frozen=True)
class SessionStats:
    """One deployment-agnostic statistics snapshot of a session.

    The replayer counters (``tasks_seen`` ... ``deferrals``) are the
    decision-stream-determined part: two runs of the same stream that
    made the same decisions have identical values, whichever backend
    served them. The executor-side fields (memo hits, outstanding jobs,
    quota, evictions) describe *how* the backend served the session and
    may legitimately differ between deployments.
    """

    session_id: object
    backend: str
    # Decision-determined (replayer) counters.
    tasks_seen: int
    tasks_flushed: int
    tasks_traced: int
    traces_fired: int
    candidates_ingested: int
    deferrals: int
    # Serving-path gauges (match engine + decision policy): how much
    # pointer pressure the stream generated, how much of it the engine
    # deduplicated away, and how often scoring hysteresis kept the
    # policy from chasing an unrealized candidate.
    active_pointer_peak: int
    pointer_collapses: int
    hysteresis_suppressed: int
    # Executor-side serving counters.
    jobs_submitted: int
    tokens_analyzed: int
    memo_hits: int
    outstanding_jobs: int
    quota_limit: Optional[int]
    quota_stalls: int
    evictions: int
    # Replication gauges (Section 5.1 agreement protocol). Single-node
    # backends report the no-coordinator defaults: 1 node, no waits, a
    # zero margin, and an empty agreement table.
    nodes: int = 1
    coordinator_waits: int = 0
    ingest_margin_ops: int = 0
    agreement_table_size: int = 0
    # Degradation gauges (fault containment / graceful degradation):
    # contained mining failures, jobs resolved to the empty degraded
    # result, soft-deadline overruns, whether the session's lane is
    # currently quarantined, and how many replicas are still serving
    # (== nodes unless a replica dropped).
    mining_failures: int = 0
    degraded_jobs: int = 0
    deadline_overruns: int = 0
    quarantined: bool = False
    live_nodes: int = 1
    # Candidate-lifecycle / persistence gauges: candidates the eviction
    # policy removed, how many times this session (or its backend, for
    # service-held spill tiers) warm-started from a dehydrated state,
    # and how many dehydrated states the serving backend currently
    # holds. All zero with the default (unbounded) knobs.
    candidates_evicted: int = 0
    warm_starts: int = 0
    states_held: int = 0

    @property
    def memo_hit_rate(self):
        """Fraction of this session's mining jobs answered by a memo."""
        return self.memo_hits / self.jobs_submitted if self.jobs_submitted else 0.0

    @property
    def replay_fraction(self):
        """Fraction of the session's tasks issued inside a trace."""
        return self.tasks_traced / self.tasks_seen if self.tasks_seen else 0.0

    def replayer_counters(self):
        """The decision-determined slice, in
        :meth:`~repro.core.replayer.ReplayerStats.decision_tuple` order --
        what the decision-neutrality property tests compare."""
        return tuple(getattr(self, name) for name in _REPLAYER_FIELDS)

    def serving_counters(self):
        """The engine/policy gauges, in ``ReplayerStats`` slot order."""
        return tuple(getattr(self, name) for name in _SERVING_FIELDS)


def collect_session_stats(handle, evictions=None, backend=None):
    """Build a :class:`SessionStats` from any backend's session handle.

    ``handle`` is what ``TracingBackend.open_session`` returned: the
    processor itself (standalone) or a service ``SessionHandle``.
    ``evictions`` overrides the backend-eviction counter for callers
    holding richer context; by default it is read off the owning service
    (0 for standalone backends, which never evict). ``backend`` is the
    serving backend's ``backend_kind``; ``Session.stats`` passes it
    down, and bare calls infer it from the handle: a replicated handle
    carries its node processors, and a service lane has a scheduler.
    """
    processor = getattr(handle, "processor", handle)
    replayer = processor.stats
    executor = processor.executor
    scheduler = executor.scheduler
    service = getattr(handle, "service", None)
    if evictions is None:
        evictions = service.sessions_evicted if service is not None else 0
    state_store = getattr(service, "state_store", None)
    # A replicated handle carries the per-session coordinator; a bare
    # processor running replicated carries its own reference.
    coordinator = getattr(handle, "coordinator", None)
    if coordinator is None:
        coordinator = getattr(processor, "coordinator", None)
    if backend is None:
        if getattr(handle, "processors", None) is not None:
            backend = "replicated"
        elif scheduler is not None:
            backend = "service"
        else:
            backend = "standalone"
    return SessionStats(
        session_id=getattr(handle, "session_id", None),
        backend=backend,
        tasks_seen=replayer.tasks_seen,
        tasks_flushed=replayer.tasks_flushed,
        tasks_traced=replayer.tasks_traced,
        traces_fired=replayer.traces_fired,
        candidates_ingested=replayer.candidates_ingested,
        deferrals=replayer.deferrals,
        active_pointer_peak=replayer.active_pointer_peak,
        pointer_collapses=replayer.pointer_collapses,
        hysteresis_suppressed=replayer.hysteresis_suppressed,
        jobs_submitted=executor.jobs_submitted,
        tokens_analyzed=executor.tokens_analyzed,
        memo_hits=executor.memo_hits,
        outstanding_jobs=executor.outstanding,
        quota_limit=(
            scheduler.lane_outstanding_quota if scheduler is not None
            else None
        ),
        quota_stalls=executor.quota_stalls,
        evictions=evictions,
        nodes=getattr(handle, "num_nodes", 1),
        coordinator_waits=coordinator.waits if coordinator else 0,
        ingest_margin_ops=coordinator.margin_ops if coordinator else 0,
        agreement_table_size=(
            coordinator.agreement_table_size if coordinator else 0
        ),
        mining_failures=executor.mining_failures,
        degraded_jobs=executor.degraded_jobs,
        deadline_overruns=executor.deadline_overruns,
        quarantined=executor.quarantined,
        live_nodes=getattr(
            handle, "live_nodes", getattr(handle, "num_nodes", 1)
        ),
        candidates_evicted=replayer.candidates_evicted,
        warm_starts=getattr(processor, "warm_starts", 0),
        states_held=state_store.states_held if state_store is not None else 0,
    )


__all__ = ["SessionStats", "collect_session_stats"]
