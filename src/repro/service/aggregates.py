"""Shared ``backend_stats`` bookkeeping for pooled tracing backends.

The standalone pool (:class:`repro.api.StandaloneBackend`) and the
replicated backend (:class:`repro.service.replicated.ReplicatedBackend`)
both aggregate per-processor counters the same way: lifetime counters of
closed sessions are accumulated so ``backend_stats`` reports the same
history a service's shared executor would (its aggregates survive
``release_lane``), and open sessions' counters are folded on top --
sums for the additive counters, a max for the pointer peak. Keeping the
fold in one place means a counter added to one backend's stats shape
cannot silently go missing from the other.
"""

#: Per-processor counters summed into the totals. ``quarantined`` is a
#: 0/1 gauge per processor, so its sum counts currently quarantined
#: sessions.
SUMMED_KEYS = (
    "jobs_materialized",
    "memo_hits",
    "memo_tokens_held",
    "outstanding",
    "pointer_collapses",
    "hysteresis_suppressed",
    "mining_failures",
    "degraded_jobs",
    "deadline_overruns",
    "quarantined",
    "candidates_evicted",
    "warm_starts",
)


class RetiredCounters:
    """Lifetime counters of sessions a pooled backend has closed."""

    __slots__ = ("jobs", "memo_hits", "pointer_peak", "collapses",
                 "suppressed", "mining_failures", "degraded_jobs",
                 "deadline_overruns", "candidates_evicted", "warm_starts")

    def __init__(self):
        self.jobs = 0
        self.memo_hits = 0
        self.pointer_peak = 0
        self.collapses = 0
        self.suppressed = 0
        self.mining_failures = 0
        self.degraded_jobs = 0
        self.deadline_overruns = 0
        self.candidates_evicted = 0
        self.warm_starts = 0

    def absorb(self, processor):
        """Fold a closing session's processor into the lifetime record."""
        executor = processor.executor
        self.jobs += executor.jobs_submitted
        self.memo_hits += executor.memo_hits
        self.mining_failures += executor.mining_failures
        self.degraded_jobs += executor.degraded_jobs
        self.deadline_overruns += executor.deadline_overruns
        replayer_stats = processor.replayer.stats
        self.pointer_peak = max(
            self.pointer_peak, replayer_stats.active_pointer_peak
        )
        self.collapses += replayer_stats.pointer_collapses
        self.suppressed += replayer_stats.hysteresis_suppressed
        self.candidates_evicted += replayer_stats.candidates_evicted
        self.warm_starts += getattr(processor, "warm_starts", 0)

    def seed_totals(self):
        """The retired share of a ``backend_stats`` totals dict."""
        return {
            "outstanding": 0,
            "jobs_materialized": self.jobs,
            "memo_hits": self.memo_hits,
            "memo_tokens_held": 0,
            "active_pointer_peak": self.pointer_peak,
            "pointer_collapses": self.collapses,
            "hysteresis_suppressed": self.suppressed,
            "mining_failures": self.mining_failures,
            "degraded_jobs": self.degraded_jobs,
            "deadline_overruns": self.deadline_overruns,
            "quarantined": 0,  # gauge: closed sessions are not quarantined
            "candidates_evicted": self.candidates_evicted,
            "warm_starts": self.warm_starts,
            "states_held": 0,  # gauge: only the service runs a spill tier
        }


def fold_processor_stats(totals, stats):
    """Fold one open session's ``processor.backend_stats`` into totals."""
    for key in SUMMED_KEYS:
        totals[key] += stats[key]
    totals["active_pointer_peak"] = max(
        totals["active_pointer_peak"], stats["active_pointer_peak"]
    )


def finish_totals(totals):
    """Derive the rate fields; returns ``totals`` for chaining."""
    totals["memo_hit_rate"] = (
        totals["memo_hits"] / totals["jobs_materialized"]
        if totals["jobs_materialized"] else 0.0
    )
    return totals
