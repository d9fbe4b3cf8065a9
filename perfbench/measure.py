"""One benchmark run: timed passes, the baseline, the traced pass.

The end-to-end metrics are computed here from the passes; see
``perfbench/README.md`` for their definitions.
"""

import resource
import time
from statistics import median

from perfbench.layers import LayerProbe, per_layer_metrics
from perfbench.workloads import run_baseline, run_pass

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("tasks_per_s", "tasks/s"),
    ("submit_p50_us", "us"),
    ("submit_p999_us", "us"),
    ("replay_fraction", "ratio"),
    ("modeled_speedup", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_frac", "ratio"),
)


class Run:
    """Everything one invocation measured."""

    def __init__(self, workload, seed, seconds, trace):
        self.passes = []
        began = time.perf_counter()
        while len(self.passes) < MIN_PASSES or \
                time.perf_counter() - began < seconds:
            self.passes.append(run_pass(workload, seed))
        self.measured_s = time.perf_counter() - began
        # Linux reports kilobytes.
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        self.baseline = run_baseline(workload, seed)
        self.probe = self.traced = None
        if trace:
            self.probe = LayerProbe()
            self.traced = run_pass(workload, seed, probe=self.probe)
        everything = self.passes + ([self.traced] if self.traced else [])
        self.problems = self.consistency_problems()
        self.attempted = sum(p.tasks for p in everything)
        self.failed = sum(p.failed_tasks for p in everything)
        if self.problems:
            self.failed = self.attempted  # a failed check fails every task
        self.correct = not self.problems and self.failed == 0

    def consistency_problems(self):
        """The passes' own checks, plus: every pass decides the same."""
        problems = [p for result in self.passes for p in result.problems]
        problems += self.baseline.problems
        reference = self.passes[0]
        for i, result in enumerate(self.passes[1:], start=2):
            if result.digests != reference.digests:
                problems.append(f"timed pass {i} decided differently from "
                                "pass 1")
            if result.virtual_s != reference.virtual_s:
                problems.append(f"timed pass {i} took another virtual time")
        if self.traced is not None:
            problems += self.traced.problems
            if self.traced.digests != reference.digests:
                problems.append("the traced pass decided differently from "
                                "the timed passes: tracing is not "
                                "decision-neutral")
        return problems

    def timing_medians(self, normalized):
        """Medians over passes of the four timing metrics.

        ``normalized`` divides each pass's times by its slowdown (see
        ``perfbench/calibration.py``); otherwise they are raw wall time.
        """
        def scale(p):
            return p.slowdown if normalized else 1.0

        passes = self.passes
        return {
            "tasks_per_s": median(p.tasks_per_s * scale(p) for p in passes),
            "submit_p50_us": median(p.latency["p50_us"] / scale(p)
                                    for p in passes),
            "submit_p999_us": median(p.latency["p999_us"] / scale(p)
                                     for p in passes),
            "setup_s": median(p.setup_s / scale(p) for p in passes),
        }

    def end_to_end(self):
        first = self.passes[0]
        return {
            **self.timing_medians(normalized=True),
            "replay_fraction": first.replay_fraction,
            "modeled_speedup": self.baseline.virtual_s / first.virtual_s,
            "peak_rss_mb": self.peak_rss_mb,
            "delivered_frac": 1 - self.failed / self.attempted,
        }

    def end_to_end_notes(self):
        """What each end-to-end value rests on, for the printed table."""
        raw = self.timing_medians(normalized=False)
        n = len(self.passes)
        latency = self.passes[0].latency
        samples = f"{latency['samples']} samples each"
        return {
            "tasks_per_s": f"median of {n} passes of {self.passes[0].tasks} "
                           f"tasks; raw {raw['tasks_per_s']:.6g}",
            "submit_p50_us": f"median of {n} passes, {samples}; "
                             f"raw {raw['submit_p50_us']:.6g}",
            "submit_p999_us": f"median of {n} passes, {samples}, "
                              f"{latency['beyond_p999']} beyond; "
                              f"raw {raw['submit_p999_us']:.6g}",
            "replay_fraction": "same on every pass",
            "modeled_speedup": "virtual time, no Apophenia / Apophenia",
            "setup_s": f"median of {n} passes; raw {raw['setup_s']:.6g}",
            "peak_rss_mb": "whole process, before any traced pass",
            "delivered_frac": f"failed_frac {self.failed / self.attempted:.6g}"
                              f" ({self.failed} of {self.attempted} tasks)",
        }

    def per_layer(self):
        untraced_wall_s = median(p.wall_s / p.slowdown for p in self.passes)
        return per_layer_metrics(self.probe, self.traced, untraced_wall_s,
                                 self.baseline)
