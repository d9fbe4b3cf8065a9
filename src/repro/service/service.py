"""The multi-tenant Apophenia service.

:class:`ApopheniaService` multiplexes N concurrent application sessions --
each a full ``(TaskHasher, TraceFinder, TraceReplayer)`` triple fronting
its own runtime -- over ONE shared mining executor
(:class:`~repro.core.jobs.SharedJobExecutor`). Sharing the mining
backend is what makes the service more than N processors in a dict:
identical windows from different tenants hit the same memo entry (safe
because mining results are pure functions of the window), and one fair
scheduler amortizes the analysis cost the paper attributes to a single
application across the whole tenant population.

What is shared vs. per-session:

==================  ====================================================
shared              mining algorithm, cross-session memo, submit queues,
                    fair scheduler, outstanding-job budget
per-session         hasher, finder (history buffer + op clock), replayer
                    (candidate trie + scoring), runtime, job-id counter
==================  ====================================================

Sessions are evicted least-recently-used when ``max_sessions`` is
exceeded; eviction flushes the victim's buffered tasks first, so no task
is ever dropped. With ``session_state_budget`` set, eviction no longer
*forgets* either: the victim is dehydrated into a token-budgeted
:class:`~repro.persist.SessionStateStore` and re-admission hydrates, so
an evicted tenant warm-starts at its learned steady state instead of
re-mining from scratch. Without the budget (the default) eviction keeps
the historical behaviour -- the tenant restarts cold.
"""

from repro.core.jobs import SharedJobExecutor
from repro.core.processor import (
    ApopheniaConfig,
    ApopheniaProcessor,
    _resolve_repeats_algorithm,
)
from repro.errors import SessionClosedError
from repro.persist import SessionStateStore, dehydrate, hydrate_processor
from repro.runtime.session import RuntimeSessionFactory


class SessionHandle:
    """One tenant's slice of the service."""

    __slots__ = (
        "session_id",
        "service",
        "processor",
        "runtime",
        "lane",
        "owns_runtime",
        "closed",
        "last_used",
    )

    def __init__(self, session_id, service, processor, runtime, lane,
                 owns_runtime):
        self.session_id = session_id
        self.service = service
        self.processor = processor
        self.runtime = runtime
        self.lane = lane
        self.owns_runtime = owns_runtime
        self.closed = False
        self.last_used = 0

    def execute_task(self, task):
        """Issue one task; equivalent to ``service.execute_task``.

        Routed through the service so handle-driven tenants get the same
        LRU stamp and scheduler pump as id-addressed ones -- a handle that
        bypassed the pump would never drain its own submit queue.
        """
        if self.closed:
            raise SessionClosedError(self.session_id)
        self.service.execute_task(self.session_id, task)

    def set_iteration(self, iteration):
        """Advance the session's iteration; routed like ``execute_task``.

        Routing matters (``service.execute_task`` documents why): a
        handle call that bypassed the service would neither refresh the
        LRU stamp nor pump the shared scheduler, so an iteration-heavy
        tenant would look idle and get evicted while actively serving.
        """
        if self.closed:
            raise SessionClosedError(self.session_id)
        self.service.set_iteration(self.session_id, iteration)

    def flush(self):
        """Drain the session's buffered tasks; routed like
        ``execute_task`` (LRU stamp + scheduler pump), so a
        flush-heavy tenant stays visibly active."""
        if self.closed:
            raise SessionClosedError(self.session_id)
        self.service.flush(self.session_id)

    @property
    def stats(self):
        """The session's :class:`~repro.core.replayer.ReplayerStats`."""
        return self.processor.stats

    def decision_trace(self):
        return self.processor.decision_trace()

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return f"SessionHandle({self.session_id!r}, {state})"


class ApopheniaService:
    """Serves many applications' token streams from one process.

    Parameters
    ----------
    config:
        :class:`~repro.core.processor.ApopheniaConfig`; the service reads
        the service knobs (``max_sessions``, ``max_outstanding_jobs``,
        ``shared_memo_capacity``) plus the mining algorithm, and uses the
        rest as the default per-session configuration. ``open_session``
        may override the per-session part, but not the mining algorithm:
        all tenants share one executor, and the shared memo is only safe
        while every tenant computes the same pure function of the window.
    runtime_factory:
        :class:`~repro.runtime.session.RuntimeSessionFactory` used when a
        session is opened without an application-provided runtime.
    """

    #: :class:`repro.api.TracingBackend` discriminator.
    backend_kind = "service"

    def __init__(self, config=None, runtime_factory=None):
        self.config = config or ApopheniaConfig()
        self.executor = SharedJobExecutor(
            repeats_algorithm=_resolve_repeats_algorithm(
                self.config.repeats_algorithm, self.config.sa_backend
            ),
            memo_capacity=self.config.shared_memo_capacity,
            max_outstanding_jobs=self.config.max_outstanding_jobs,
            memo_token_budget=self.config.shared_memo_token_budget,
            lane_outstanding_quota=self.config.lane_outstanding_quota,
            fault_plan=self.config.fault_plan,
            deadline_tokens=self.config.mining_deadline_tokens,
            quarantine_threshold=self.config.fault_quarantine_threshold,
        )
        # Explicit None check: an empty factory is falsy (it has __len__).
        self.runtime_factory = (
            runtime_factory if runtime_factory is not None
            else RuntimeSessionFactory()
        )
        self.sessions = {}  # session_id -> SessionHandle
        self._tick = 0  # monotonic use counter backing LRU eviction
        self.sessions_opened = 0
        self.sessions_evicted = 0
        # Evict-without-forgetting spill tier (None: forget on evict,
        # the historical behaviour).
        self.state_store = (
            SessionStateStore(token_budget=self.config.session_state_budget)
            if self.config.session_state_budget is not None else None
        )
        self.warm_starts = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, session_id, runtime=None, config=None, node_id=0,
                     priority=0, state=None):
        """Admit a tenant; returns its :class:`SessionHandle`.

        ``config`` overrides the per-session Apophenia configuration
        (buffer size, trace-length bounds, latency model...); the
        service-level knobs and mining algorithm always come from the
        service's own config. Admitting a session beyond ``max_sessions``
        evicts the least-recently-used tenant first.

        ``state`` warm-starts the session from an explicit
        :class:`~repro.persist.SessionState`. When it is ``None`` and
        the spill tier holds a state for this ``session_id`` (the tenant
        was LRU-evicted earlier), that state is popped and applied --
        re-admission transparently resumes the learned steady state.
        """
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already open")
        while len(self.sessions) >= max(1, self.config.max_sessions):
            self._evict_lru()
        cfg = config or self.config
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = self.runtime_factory.create(session_id).runtime
        lane = self.executor.lane(
            session_id,
            node_id=node_id,
            base_latency_ops=cfg.job_base_latency_ops,
            per_token_latency_ops=cfg.job_per_token_latency_ops,
            priority=priority,
            quarantine_threshold=cfg.fault_quarantine_threshold,
        )
        processor = ApopheniaProcessor(
            runtime, cfg, node_id=node_id, executor=lane
        )
        if owns_runtime:
            # Factory-tracked handles expose the session's replay-engine
            # counters (RuntimeHandle.serving_stats).
            self.runtime_factory.bind_processor(session_id, processor)
        if state is None and self.state_store is not None:
            state = self.state_store.pop(session_id)
        if state is not None:
            hydrate_processor(processor, state)
            processor.warm_starts += 1
            self.warm_starts += 1
        session = SessionHandle(session_id, self, processor, runtime, lane,
                                owns_runtime)
        self._tick += 1
        session.last_used = self._tick
        self.sessions[session_id] = session
        self.sessions_opened += 1
        return session

    def close_session(self, session_id):
        """Flush and retire a session; returns its handle for inspection.

        Teardown is exception-safe: the lane, the factory-owned runtime,
        and the handle's closed mark are released even when the flush
        raises (the error still propagates), so a failing tenant cannot
        leak service resources or leave a half-closed handle behind.
        """
        session = self.sessions.get(session_id)
        if session is None:
            raise SessionClosedError(
                session_id,
                f"unknown or already-closed session {session_id!r}",
            )
        try:
            # The processor directly, not the routed handle.flush():
            # teardown must not touch LRU stamps or pump other tenants'
            # work into a lane that is about to be released.
            session.processor.flush()
        finally:
            del self.sessions[session_id]
            self.executor.release_lane(session_id)
            if session.owns_runtime:
                self.runtime_factory.release(session_id)
            session.closed = True
        return session

    def _evict_lru(self):
        victim_id = min(
            self.sessions, key=lambda sid: self.sessions[sid].last_used
        )
        if self.state_store is not None:
            # Dehydrate BEFORE close_session: dehydrate flushes the
            # victim itself, and teardown releases the lane the snapshot
            # still needs to read pending-job state from.
            state = dehydrate(self.sessions[victim_id], session_id=victim_id)
            self.state_store.put(victim_id, state)
        self.close_session(victim_id)
        self.sessions_evicted += 1

    def session(self, session_id):
        """Look up an open session without touching its LRU position."""
        return self.sessions[session_id]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute_task(self, session_id, task):
        """Issue one task on behalf of ``session_id``.

        Touches the session's LRU stamp, runs the task through the
        session's processor, then lets the shared scheduler drain any
        mining work queued across *all* tenants. This is the service's
        hot path -- it adds one dict lookup, one counter bump, and one
        queue check on top of what a standalone processor pays.
        """
        session = self._touch(session_id)
        session.processor.execute_task(task)
        self._pump()

    def set_iteration(self, session_id, iteration):
        """Advance a session's iteration; same routing as
        ``execute_task`` (LRU stamp + scheduler pump)."""
        session = self._touch(session_id)
        session.processor.set_iteration(iteration)
        self._pump()

    def flush(self, session_id):
        """Drain one session's buffered tasks; same routing as
        ``execute_task`` (LRU stamp + scheduler pump)."""
        session = self._touch(session_id)
        session.processor.flush()
        self._pump()

    def flush_all(self):
        """Flush every open session (end of run, or a global fence)."""
        for session in self.sessions.values():
            session.processor.flush()
        self._pump()

    def _touch(self, session_id):
        """Look up a session and refresh its LRU stamp. Every serving
        entry point routes through here: the stamp is what keeps an
        active tenant -- whatever mix of submits, flushes, and iteration
        marks it issues -- off the eviction block."""
        session = self.sessions[session_id]
        self._tick += 1
        session.last_used = self._tick
        return session

    def _pump(self):
        """Let the shared scheduler drain queued mining work, if any."""
        executor = self.executor
        if executor.outstanding:
            executor.pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.sessions)

    @property
    def stats(self):
        """Aggregate service counters plus the shared executor's.

        The serving-path gauges aggregate over *open* sessions: the
        pointer peak is a max (the worst ladder any tenant's stream
        built), collapses and suppressed switches are sums (total work
        the deduplicating engine avoided / total churn the hysteresis
        absorbed, fleet-wide).
        """
        stats = dict(self.executor.stats)
        replayers = [s.stats for s in self.sessions.values()]
        stats.update(
            sessions_open=len(self.sessions),
            sessions_opened=self.sessions_opened,
            sessions_evicted=self.sessions_evicted,
            live_nodes=len(self.sessions),  # service sessions: 1 node each
            tasks_seen=sum(r.tasks_seen for r in replayers),
            active_pointer_peak=max(
                (r.active_pointer_peak for r in replayers), default=0
            ),
            pointer_collapses=sum(r.pointer_collapses for r in replayers),
            hysteresis_suppressed=sum(
                r.hysteresis_suppressed for r in replayers
            ),
            candidates_evicted=sum(
                r.candidates_evicted for r in replayers
            ),
            warm_starts=self.warm_starts,
            states_held=(
                self.state_store.states_held
                if self.state_store is not None else 0
            ),
            state_tokens_held=(
                self.state_store.tokens_held
                if self.state_store is not None else 0
            ),
        )
        return stats

    @property
    def backend_stats(self):
        """:class:`repro.api.TracingBackend` spelling of :attr:`stats`."""
        return self.stats
