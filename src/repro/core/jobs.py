"""Asynchronous buffer-analysis jobs.

Apophenia mines the task history buffer *asynchronously* so the application
is never stalled waiting for a suffix-array analysis (Section 4.2). In the
real implementation the jobs run on Legion's background worker threads; in
this reproduction, job *results* are computed eagerly (they depend only on
the job's input tokens, so they are deterministic across nodes) while job
*completion times* are modeled in units of processed operations: a job
submitted at operation ``t`` over ``n`` tokens completes at operation
``t + base + ceil(n * per_token)``, with deterministic per-node jitter so
the distributed agreement protocol (Section 5.1) has real skew to resolve.

One executor serves every deployment:

* :class:`JobExecutor` is the per-session executor -- of a standalone
  session, of each replicated node, and of each service tenant. Its fault
  containment is written once: deadline -> breaker (both at submit, so a
  refused job never queues) -> injected fault -> mine -> breaker record
  -> counters -> fulfil. Without a scheduler it mines at submit time;
* :class:`SharedJobExecutor` is the service's scheduler. Its lanes are
  scheduled :class:`JobExecutor` instances whose admitted jobs queue
  until the scheduler pumps (or a ``job.result`` read forces) them; the
  scheduler then runs the lane's same containment with its own memo and
  algorithm as the mining step.

Decision neutrality is the load-bearing invariant: a session served by a
scheduled lane must make *byte-identical* tbegin/tend decisions to running
that application alone. Three properties guarantee it:

1. **Identical completion times.** Every executor numbers its own jobs
   from zero and feeds :func:`completion_op` in the session's own
   operation clock -- op-clocks are never shared, so tenants cannot
   perturb each other's ingestion points.
2. **Identical results.** Mining is a pure function of
   ``(window, min_length)``; :class:`MiningMemo` is keyed exactly so (no
   node or session identity) and copies results in and out, so a hit from
   another tenant's insert returns the same value mining would have.
3. **Scheduling affects wall-clock only.** The fair scheduler decides
   *when the Python work runs*, not when results are ingested: ingestion
   is gated by the op-clock completion model, and a job drained before the
   scheduler reached it materializes on first access to ``job.result``.
"""

import itertools
from collections import Counter, OrderedDict, deque
from functools import partial

from repro.core.repeats import find_repeats
from repro.faults import (
    CircuitBreaker,
    InjectedMiningFault,
    MiningFault,
    resolve_fault_plan,
)

#: Sentinel for a job whose mining work has not run yet.
_UNMINED = object()


def completion_op(now_op, num_tokens, base_latency_ops, per_token_latency_ops,
                  node_id, job_id):
    """Operation count at which a mining job completes.

    A module-level pure function (rather than a method) so a hydrated
    session recomputes the completion times its uninterrupted run would
    hold (:mod:`repro.persist`). The jitter is deterministic per
    ``(node_id, job_id)``, modeling scheduling noise of background worker
    threads on each node; Python hashes integers to themselves, so
    ``hash`` here is stable across processes.
    """
    latency = base_latency_ops + int(num_tokens * per_token_latency_ops)
    jitter = (hash((node_id * 2654435761) ^ job_id) & 0xFFFF) % max(  # replint: allow[RPL003] int-only argument: Python hashes ints to themselves, stable across processes
        1, base_latency_ops // 2
    )
    return now_op + latency + jitter


class AnalysisJob:
    """One asynchronous mining job over a slice of the history buffer.

    ``degraded`` marks a job whose mining work failed (or was skipped by
    a quarantine/deadline): its result is the empty no-repeats value --
    valid input for the replayer, because mining is advisory -- and must
    never be memoized as the true analysis of its window.
    """

    __slots__ = (
        "job_id",
        "submitted_at_op",
        "completes_at_op",
        "num_tokens",
        "degraded",
        "_result",
        "_materialize",
    )

    def __init__(self, job_id, submitted_at_op, completes_at_op, num_tokens,
                 result=_UNMINED, degraded=False):
        self.job_id = job_id
        self.submitted_at_op = submitted_at_op
        self.completes_at_op = completes_at_op
        self.num_tokens = num_tokens
        self.degraded = degraded
        self._result = result
        #: Zero-argument hook that runs a queued job's mining work.
        self._materialize = None

    @property
    def result(self):
        """The mined repeats; forces deferred mining work if still queued."""
        if self._result is _UNMINED:
            self._materialize()
        return self._result

    @property
    def materialized(self):
        """True once the mining work for this job has actually run."""
        return self._result is not _UNMINED

    def _fulfill(self, result, degraded=False):
        self._result = result
        self.degraded = degraded
        self._materialize = None

    def complete_by(self, op_count):
        return op_count >= self.completes_at_op

    def __repr__(self):
        return (
            f"AnalysisJob(id={self.job_id}, n={self.num_tokens}, "
            f"submitted={self.submitted_at_op}, completes={self.completes_at_op})"
        )


class MiningMemo:
    """LRU cache of ``(window, min_length) -> [Repeat, ...]`` results.

    Steady-state iterative applications keep re-mining identical buffer
    slices (the multi-scale schedule revisits the same sizes and a
    converged stream repeats exactly); the memo answers those jobs without
    re-running the analysis. Results are pure functions of the key, and the
    key deliberately excludes node and session identity, so one memo may be
    shared across replicated nodes and across the tenants of an
    :class:`~repro.service.ApopheniaService` without changing any decision.

    The memo is defensive about aliasing: it stores a private shallow copy
    on insert and hands out a fresh shallow copy on every hit, so a caller
    mutating a returned result list can never corrupt what later hits (or
    other tenants) observe.

    Admission is size-aware when a ``token_budget`` is set: every entry
    costs its window length in tokens, and an insert evicts
    least-recently-used entries until the total held tokens fit the
    budget. A window larger than the whole budget is simply not admitted
    -- one 5000-token window can no longer displace many small entries,
    which matters once the memo is shared across the tenants of an
    :class:`~repro.service.ApopheniaService` (tenants with small buffers
    would otherwise lose their entire working set to one big tenant's
    slice). ``token_budget=None`` (the default) preserves the pure
    entry-count LRU.
    """

    def __init__(self, capacity=8, token_budget=None):
        self.capacity = capacity
        self.token_budget = token_budget
        self._entries = OrderedDict()
        self.tokens_held = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.oversize_rejections = 0

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def key(tokens, min_length):
        return (tuple(tokens), min_length)

    def lookup(self, key):
        """Return a copy of the cached result for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return list(entry)

    def insert(self, key, result):
        if not self.capacity:
            return
        cost = len(key[0])
        if self.token_budget is not None and cost > self.token_budget:
            # Admitting this window would mean evicting *everything* and
            # still not fitting; refusing keeps many small entries alive
            # instead of caching one giant window nobody else can share.
            self.oversize_rejections += 1
            return
        if key in self._entries:
            # Re-insert replaces the entry: release its held tokens so
            # the accounting cannot drift, and refresh its LRU position
            # (plain assignment would leave it at the stale slot).
            self.tokens_held -= cost
            self._entries.move_to_end(key)
        self._entries[key] = list(result)
        self.tokens_held += cost
        self.insertions += 1
        if len(self._entries) > self.capacity:
            self._evict_lru()
        if self.token_budget is not None:
            while self.tokens_held > self.token_budget:
                self._evict_lru()

    def _evict_lru(self):
        victim_key, _ = self._entries.popitem(last=False)
        self.tokens_held -= len(victim_key[0])
        self.evictions += 1

    def mine(self, tokens, min_length, algorithm):
        """Look up ``(tokens, min_length)`` or compute it via ``algorithm``.

        Returns ``(result, hit)``.
        """
        key = self.key(tokens, min_length)
        cached = self.lookup(key)
        if cached is not None:
            return cached, True
        result = algorithm(tokens, min_length)
        self.insert(key, result)
        return result, False

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0




def _mine_with(source, tokens, min_length):
    """Mine a window through ``source``'s memo and algorithm.

    Returns ``(result, hit)``. Both attributes are read per call, so a
    wrapped or swapped ``repeats_algorithm`` takes effect at once.
    """
    memo = source.memo
    if memo is None:
        return source.repeats_algorithm(tokens, min_length), False
    return memo.mine(tokens, min_length, source.repeats_algorithm)


class JobExecutor:
    """Runs repeat-finding jobs with simulated asynchronous completion.

    Parameters
    ----------
    repeats_algorithm:
        Callable ``(tokens, min_length) -> list[Repeat]``; defaults to the
        paper's Algorithm 2 (:func:`repro.core.repeats.find_repeats`).
    base_latency_ops / per_token_latency_ops:
        Completion-time model, in units of processed operations.
    node_id:
        Used to derive deterministic per-node jitter.
    memo_capacity:
        Number of recent ``(window, min_length) -> result`` entries kept in
        a private :class:`MiningMemo`. Set to 0 to disable.
    memo_token_budget:
        Optional size-aware admission budget for the private memo, in
        tokens (see :class:`MiningMemo`). ``None`` keeps entry-count LRU.
    memo:
        An externally owned :class:`MiningMemo` to use instead of a private
        one -- this is how replicated nodes share one cache. When given,
        ``memo_capacity`` is ignored.
    fault_plan:
        A :class:`repro.faults.FaultPlan` (or spec string / ``None``)
        injecting deterministic mining faults; the default null plan
        costs one attribute check per submit.
    stream_key:
        Stream identity the fault plan keys its decisions on. Replicated
        node executors of one session pass the same key, so all replicas
        fail identically (injected faults stay decision-neutral across
        the replica set); a service lane's key is its session id.
    deadline_tokens:
        Soft per-job deadline, in window tokens: a window larger than
        this degrades to the empty result instead of running (a stand-in
        for wall-clock mining budgets). ``None`` disables it.
    quarantine_threshold:
        Consecutive-failure threshold of the executor's
        :class:`~repro.faults.CircuitBreaker`; ``None``/0 disables
        quarantine (failures are still contained and counted).
    scheduler:
        The :class:`SharedJobExecutor` this executor is a lane of, or
        ``None`` to mine at submit time. A lane mines with the
        scheduler's memo and algorithm, so it is built without its own
        (:meth:`SharedJobExecutor.lane` does that).
    priority:
        The lane's scheduling class (lower is served first).
    """

    #: Counters a dehydrated session carries (:meth:`counters`).
    COUNTERS = (
        "jobs_submitted",
        "tokens_analyzed",
        "memo_hits",
        "mining_failures",
        "degraded_jobs",
        "deadline_overruns",
    )

    def __init__(
        self,
        repeats_algorithm=find_repeats,
        base_latency_ops=50,
        per_token_latency_ops=0.05,
        node_id=0,
        memo_capacity=8,
        memo_token_budget=None,
        memo=None,
        fault_plan=None,
        stream_key=None,
        deadline_tokens=None,
        quarantine_threshold=None,
        scheduler=None,
        priority=0,
    ):
        self.repeats_algorithm = repeats_algorithm
        self.base_latency_ops = base_latency_ops
        self.per_token_latency_ops = per_token_latency_ops
        self.node_id = node_id
        if memo is None and memo_capacity:
            memo = MiningMemo(memo_capacity, token_budget=memo_token_budget)
        self.memo = memo
        self.fault_plan = resolve_fault_plan(fault_plan)
        self.stream_key = stream_key
        self.deadline_tokens = deadline_tokens
        self.breaker = CircuitBreaker(quarantine_threshold)
        self.scheduler = scheduler
        self.priority = priority
        #: Queued-but-unmined jobs of a lane, in submission order.
        self.submit_queue = deque()
        self._served_seq = 0
        self._ids = itertools.count()
        self.jobs_submitted = 0
        self.tokens_analyzed = 0
        self.memo_hits = 0
        self.mining_failures = 0
        self.degraded_jobs = 0
        self.deadline_overruns = 0
        #: Queued-but-unmined jobs still charged to this lane.
        self.outstanding = 0
        #: Times a submit hit the per-lane quota and drained its own work.
        self.quota_stalls = 0

    @property
    def quarantined(self):
        return self.breaker.quarantined

    def counters(self):
        """``{name: value}`` of the :data:`COUNTERS`."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def restore(self, next_job_id, counters):
        """Resume a dehydrated session's job numbering and counters."""
        self._ids = itertools.count(next_job_id)
        for name in self.COUNTERS:
            if name in counters:
                setattr(self, name, counters[name])

    def submit(self, tokens, min_length, now_op):
        """Submit a mining job; returns the :class:`AnalysisJob`.

        The job's completion op is fixed here (it is part of the decision
        stream), and so are the injected fault and the admission check:
        an over-deadline or quarantined job resolves at once to the empty
        degraded result. An admitted job mines now, or -- on a lane --
        queues until the scheduler runs it. The finder hands over a
        freshly copied slice, so the window is taken without a copy.
        """
        job_id = next(self._ids)
        plan = self.fault_plan
        fault = (
            plan.mining_fault(self.stream_key, job_id) if plan.active
            else None
        )
        completes = completion_op(
            now_op,
            len(tokens),
            self.base_latency_ops,
            self.per_token_latency_ops,
            self.node_id,
            job_id,
        )
        if fault is not None and fault.kind == MiningFault.DELAY:
            completes += fault.delay_ops
            fault = None  # the mining itself stays healthy, just late
        self.jobs_submitted += 1
        self.tokens_analyzed += len(tokens)
        job = AnalysisJob(job_id, now_op, completes, len(tokens))
        if not self._admit(len(tokens)):
            job._fulfill([], degraded=True)
        elif self.scheduler is None:
            self._run(job, tokens, min_length, fault, self._mine)
        else:
            self.scheduler._enqueue(self, job, tokens, min_length, fault)
        return job

    def _admit(self, num_tokens):
        """The deadline and breaker checks; ``False`` degrades the job."""
        if (self.deadline_tokens is not None
                and num_tokens > self.deadline_tokens):
            # Soft deadline: a pathological window degrades instead of
            # stalling. Deliberately not a breaker failure -- the stream
            # is healthy, this window is just over budget.
            self.deadline_overruns += 1
            self.degraded_jobs += 1
            return False
        if not self.breaker.allow():
            self.degraded_jobs += 1
            return False
        return True

    def _mine(self, tokens, min_length):
        """The unscheduled mining step: this executor's memo and algorithm."""
        return _mine_with(self, tokens, min_length)

    def _run(self, job, tokens, min_length, fault, mine):
        """Mine an admitted job under containment and fulfil it.

        ``mine(tokens, min_length) -> (result, hit)`` is the mining step.
        Mining is advisory, so every failure -- injected or real --
        resolves to the empty no-repeats result instead of propagating.
        The memo is only written by a mining step that returned, so a
        degraded result can never poison it (failed analyses must not
        answer other callers' identical windows).
        """
        try:
            if fault is not None:
                # Decided at submit time; raised here, inside the
                # containment, so it takes exactly the path a real
                # mining exception takes.
                if fault.kind == MiningFault.OVERRUN:
                    self.deadline_overruns += 1
                raise InjectedMiningFault(
                    f"injected {fault.kind} fault (stream="
                    f"{self.stream_key!r}, node={self.node_id})"
                )
            result, hit = mine(tokens, min_length)
        except Exception:
            self.mining_failures += 1
            self.degraded_jobs += 1
            self.breaker.record_failure()
            job._fulfill([], degraded=True)
            return
        self.breaker.record_success()
        if hit:
            self.memo_hits += 1
        job._fulfill(result)


class _PendingMine:
    """An admitted lane job whose mining work has not run yet.

    ``counted`` tracks whether the entry still occupies queue budget:
    running it (from the scheduler or a ``job.result`` force) and lane
    release each release the budget exactly once. ``fault`` was decided
    at submit time, which keeps the fault schedule a pure function of
    ``(stream, job_seq)``, independent of the order the scheduler runs
    the work.
    """

    __slots__ = ("lane", "job", "tokens", "min_length", "fault", "counted")

    def __init__(self, lane, job, tokens, min_length, fault):
        self.lane = lane
        self.job = job
        self.tokens = tokens
        self.min_length = min_length
        self.fault = fault
        self.counted = True


class SharedJobExecutor:
    """Mining scheduler shared by every session of an Apophenia service.

    Parameters
    ----------
    repeats_algorithm:
        Callable ``(tokens, min_length) -> list[Repeat]`` shared by all
        lanes (sessions needing different algorithms need different
        services -- results must stay pure functions of the window).
    memo_capacity:
        Capacity of the cross-session :class:`MiningMemo`; 0 disables it.
    max_outstanding_jobs:
        Budget of queued-but-unmined jobs across all lanes. A submit that
        would exceed it forces the scheduler to drain the excess first
        (backpressure), bounding the memory the queues can hold.
    memo_token_budget:
        Optional size-aware admission budget for the shared memo, in
        tokens (:class:`MiningMemo`). ``None`` keeps entry-count LRU.
    lane_outstanding_quota:
        Per-lane bound on queued-but-unmined jobs. The global budget
        alone lets one runaway tenant fill the whole queue between pumps
        and ride every other tenant's backpressure drains; with a quota,
        a submit over the lane's own bound drains *that lane's* oldest
        work first, so the cost of a tenant's burst lands on the tenant.
        ``None`` disables the quota. Decision-neutral either way: drains
        only change when mining work runs, never its results or the
        op-clock completion times.
    fault_plan / deadline_tokens / quarantine_threshold:
        Every lane's fault plan, soft deadline, and default breaker
        threshold (see :class:`JobExecutor`).
    """

    def __init__(self, repeats_algorithm=find_repeats, memo_capacity=256,
                 max_outstanding_jobs=64, memo_token_budget=None,
                 lane_outstanding_quota=None, fault_plan=None,
                 deadline_tokens=None, quarantine_threshold=None):
        self.repeats_algorithm = repeats_algorithm
        self.memo = (
            MiningMemo(memo_capacity, token_budget=memo_token_budget)
            if memo_capacity else None
        )
        self.max_outstanding_jobs = max_outstanding_jobs
        self.lane_outstanding_quota = lane_outstanding_quota
        self.fault_plan = resolve_fault_plan(fault_plan)
        self.deadline_tokens = deadline_tokens
        self.quarantine_threshold = quarantine_threshold
        self.lanes = {}
        self.outstanding = 0
        self._serve_counter = itertools.count()
        # Counters of released lanes, so the totals in ``stats`` survive
        # ``release_lane``.
        self._retired = Counter()
        # Aggregate accounting.
        self.jobs_materialized = 0
        self.mines_executed = 0
        self.tokens_mined = 0
        self.backpressure_drains = 0
        self.lane_quota_drains = 0
        self.forced_out_of_order = 0

    # ------------------------------------------------------------------
    # Lane management
    # ------------------------------------------------------------------
    def lane(self, session_key, node_id=0, base_latency_ops=50,
             per_token_latency_ops=0.05, priority=0,
             quarantine_threshold=None):
        """Create the scheduled :class:`JobExecutor` for a new session."""
        if session_key in self.lanes:
            raise ValueError(f"lane {session_key!r} already exists")
        lane = JobExecutor(
            repeats_algorithm=None,
            base_latency_ops=base_latency_ops,
            per_token_latency_ops=per_token_latency_ops,
            node_id=node_id,
            memo_capacity=0,
            fault_plan=self.fault_plan,
            stream_key=session_key,
            deadline_tokens=self.deadline_tokens,
            quarantine_threshold=(
                quarantine_threshold if quarantine_threshold is not None
                else self.quarantine_threshold
            ),
            scheduler=self,
            priority=priority,
        )
        lane._served_seq = next(self._serve_counter)
        self.lanes[session_key] = lane
        return lane

    def release_lane(self, session_key):
        """Drop a closed session's lane and its queued work.

        Jobs still referenced by the departed session keep working: they
        materialize lazily on ``result`` access. They just stop occupying
        queue budget.
        """
        lane = self.lanes.pop(session_key, None)
        if lane is None:
            return None
        for pending in lane.submit_queue:
            if pending.counted:
                pending.counted = False
                self.outstanding -= 1
        lane.outstanding = 0
        lane.submit_queue.clear()
        self._retired.update(lane.counters())
        return lane

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def pump(self, max_jobs=None):
        """Drain queued mining work fairly; returns jobs materialized.

        Each round serves the lane with the lowest ``priority`` number
        that has work, breaking ties by least-recently-served -- i.e.
        round-robin within a priority class, so one chatty tenant cannot
        starve the rest. Within a lane, jobs run in submission order.
        """
        ran = 0
        while max_jobs is None or ran < max_jobs:
            lane = self._next_lane()
            if lane is None:
                break
            pending = lane.submit_queue.popleft()
            lane._served_seq = next(self._serve_counter)
            if pending.job.materialized:
                continue  # forced out of order via job.result
            self._run(pending)
            ran += 1
        return ran

    def _next_lane(self):
        best = None
        for lane in self.lanes.values():
            if not lane.submit_queue:
                continue
            if best is None or (lane.priority, lane._served_seq) < (
                best.priority, best._served_seq
            ):
                best = lane
        return best

    def _enqueue(self, lane, job, tokens, min_length, fault):
        pending = _PendingMine(lane, job, tokens, min_length, fault)
        job._materialize = partial(self._force, pending)
        lane.submit_queue.append(pending)
        lane.outstanding += 1
        self.outstanding += 1
        quota = self.lane_outstanding_quota
        if quota is not None and lane.outstanding > quota:
            # The runaway lane pays for its own burst: drain its oldest
            # queued work, not the fair-share schedule.
            lane.quota_stalls += 1
            self.lane_quota_drains += 1
            self._drain_lane(lane, lane.outstanding - quota)
        if self.outstanding > self.max_outstanding_jobs:
            self.backpressure_drains += 1
            self.pump(self.outstanding - self.max_outstanding_jobs)

    def _drain_lane(self, lane, count):
        """Materialize up to ``count`` of ``lane``'s own queued jobs."""
        ran = 0
        while ran < count and lane.submit_queue:
            pending = lane.submit_queue.popleft()
            if pending.job.materialized:
                continue  # forced out of order via job.result
            self._run(pending)
            ran += 1
        return ran

    def _force(self, pending):
        """Materialize a job ahead of the scheduler (``job.result`` read).

        Its queue entry, if any, stays put and is skipped when the
        scheduler reaches it.
        """
        if pending.job.materialized:
            return
        self.forced_out_of_order += 1
        self._run(pending)

    def _run(self, pending):
        if pending.counted:
            pending.counted = False
            pending.lane.outstanding -= 1
            self.outstanding -= 1
        self.jobs_materialized += 1
        pending.lane._run(pending.job, pending.tokens, pending.min_length,
                          pending.fault, self._mine)
        # The queue entry may linger until the scheduler pops (and skips)
        # it; drop the window so it cannot pin batchsize-long token lists.
        pending.tokens = None

    def _mine(self, tokens, min_length):
        """The scheduled mining step: the shared memo and algorithm."""
        result, hit = _mine_with(self, tokens, min_length)
        if not hit:
            self.mines_executed += 1
            self.tokens_mined += len(tokens)
        return result, hit

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memo_hit_rate(self):
        return self.memo.hit_rate if self.memo is not None else 0.0

    @property
    def stats(self):
        totals = Counter(self._retired)
        for lane in self.lanes.values():
            totals.update(lane.counters())
        return {
            "lanes": len(self.lanes),
            "outstanding": self.outstanding,
            "jobs_materialized": self.jobs_materialized,
            "mines_executed": self.mines_executed,
            "tokens_mined": self.tokens_mined,
            "memo_hits": self.memo.hits if self.memo is not None else 0,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_tokens_held": (
                self.memo.tokens_held if self.memo is not None else 0
            ),
            "backpressure_drains": self.backpressure_drains,
            "lane_quota_drains": self.lane_quota_drains,
            "forced_out_of_order": self.forced_out_of_order,
            "mining_failures": totals["mining_failures"],
            "degraded_jobs": totals["degraded_jobs"],
            "deadline_overruns": totals["deadline_overruns"],
            "quarantined": sum(
                1 for lane in self.lanes.values() if lane.quarantined
            ),
        }
