"""The experiment harness: every figure's machinery at reduced scale."""

import pytest

from repro.core.processor import ApopheniaConfig
from repro.experiments.harness import run_app
from repro.experiments.overheads import launch_overheads
from repro.experiments.report import format_speedups, format_table, format_weak_scaling
from repro.experiments.strong_scaling import FIG8_COST_MODEL, flexflow_strong_scaling
from repro.experiments.trace_search import rolling_traced_percent, trace_search_timeline
from repro.experiments.warmup import (
    per_iteration_traced_fraction,
    warmup_iterations,
    warmup_table,
)
from repro.experiments.weak_scaling import (
    WEAK_SCALING_FIGURES,
    speedup_ranges,
    weak_scaling,
)
from repro.runtime.machine import EOS, PERLMUTTER


class TestHarness:
    def test_run_app_result_fields(self):
        run = run_app("stencil", "auto", 4, iterations=40, warmup=25,
                      task_scale=0.2)
        assert run.app_name == "stencil"
        assert run.throughput > 0
        assert 0 <= run.traced_fraction <= 1
        assert run.mismatches == 0

    def test_run_app_manual(self):
        run = run_app("stencil", "manual", 4, iterations=30, warmup=20,
                      task_scale=0.2)
        assert run.traces_replayed > 0


class TestWeakScaling:
    def test_figures_registered(self):
        assert set(WEAK_SCALING_FIGURES) == {"fig6a", "fig6b", "fig7a", "fig7b"}
        assert WEAK_SCALING_FIGURES["fig6a"].machine is PERLMUTTER
        assert WEAK_SCALING_FIGURES["fig7b"].machine is EOS

    def test_tiny_sweep_and_ranges(self):
        spec = WEAK_SCALING_FIGURES["fig6a"]
        results = weak_scaling(
            spec, sizes=("s",), iterations=80, warmup=55, task_scale=0.2,
        )
        assert set(results) == {(m, "s") for m in spec.modes}
        lo, hi = speedup_ranges(results, "untraced")
        assert hi > 1.0  # auto beats untraced somewhere
        lo_m, hi_m = speedup_ranges(results, "manual")
        assert 0.5 < hi_m < 1.6

    def test_format_weak_scaling(self):
        results = {("auto", "s"): {4: 1.0, 8: 2.0}}
        text = format_weak_scaling(results, "fig6a")
        assert "auto-s" in text and "8 GPUs" in text


class TestStrongScaling:
    def test_fig8_cost_model_injects_nonideality(self):
        assert FIG8_COST_MODEL.replay_issue_quadratic > 0

    def test_tiny_fig8(self):
        # Tracing separates from untraced beyond the ~8 GPU crossover.
        speedups, raw = flexflow_strong_scaling(
            gpu_counts=(1, 16), iterations=60, warmup=40,
        )
        assert speedups["untraced"][1] == pytest.approx(1.0)
        assert speedups["manual"][16] > speedups["untraced"][16]
        assert set(raw) == {"untraced", "manual", "auto-5000", "auto-200"}

    def test_format_speedups(self):
        text = format_speedups({"manual": {1: 1.0, 8: 3.0}}, "fig8")
        assert "manual" in text and "3.00" in text


class TestWarmup:
    def test_traced_fraction_per_iteration(self):
        run = run_app("stencil", "auto", 4, iterations=60, warmup=0,
                      task_scale=0.2)
        fractions = per_iteration_traced_fraction(run.runtime)
        assert set(fractions) == set(range(60))
        assert all(0 <= v <= 1 for v in fractions.values())

    def test_warmup_detected(self):
        run = run_app("stencil", "auto", 4, iterations=80, warmup=0,
                      task_scale=0.2)
        steady = warmup_iterations(run.runtime, threshold=0.8)
        assert steady is not None
        assert 0 < steady < 60

    def test_untraced_never_steady(self):
        run = run_app("stencil", "untraced", 4, iterations=30, warmup=0,
                      task_scale=0.2)
        assert warmup_iterations(run.runtime) is None

    def test_warmup_table_small(self):
        table = warmup_table(
            runs={"stencil": dict(machine=PERLMUTTER, gpus=4, iterations=80,
                                  task_scale=0.2)}
        )
        measured, paper = table["stencil"]
        assert measured is not None
        assert paper is None  # stencil is not a paper app


class TestTraceSearch:
    def test_rolling_percent_shape(self):
        run = run_app("stencil", "auto", 4, iterations=60, warmup=0,
                      task_scale=0.2)
        series = rolling_traced_percent(run.runtime, window=100)
        assert len(series) == len(run.runtime.task_log)
        assert all(0 <= v <= 100 for v in series)
        # Startup is untraced; steady state is mostly traced.
        assert series[0] == 0.0
        assert max(series) > 60

    def test_s3d_timeline(self):
        series, run = trace_search_timeline(iterations=40, task_scale=0.1)
        assert series
        # The Figure 10 shape: low early, high late.
        early = sum(series[: len(series) // 10]) / (len(series) // 10)
        late = sum(series[-len(series) // 10 :]) / (len(series) // 10)
        assert late > early


class TestOverheads:
    def test_modeled_values_match_paper(self):
        data = launch_overheads(num_tasks=2000)
        assert data["modeled_launch_without"] == pytest.approx(7e-6)
        assert data["modeled_launch_with"] == pytest.approx(12e-6)
        assert data["modeled_launch_with"] < data["replay_cost"]

    def test_measured_overhead_positive(self):
        data = launch_overheads(num_tasks=2000)
        assert data["measured_per_task_with"] > data["measured_per_task_without"]


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "33" in text

    def test_format_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestPerfRoundsInterleave:
    """Each round of the perf runners runs every engine or backend once,
    so machine speed drift during a measurement hits all of them."""

    def test_mining_rounds_interleave(self, monkeypatch):
        from repro.experiments import mining_perf

        order = []

        def recording_miner(name):
            return lambda tokens, min_length: order.append(name) or []

        monkeypatch.setattr(mining_perf, "_backend_miner", recording_miner)
        results = mining_perf.measure_mining_throughput(
            [1, 2, 3], rounds=2, backends=["a", "b"], include_seed=False
        )
        assert order == ["a", "b", "a", "b"]
        assert sorted(results) == ["a", "b"]

    def test_replayer_rounds_interleave(self, monkeypatch):
        from repro.experiments import replayer_perf

        order = []
        real = replayer_perf.TraceReplayer

        def recording_replayer(*args, match_engine=None, **kwargs):
            order.append(match_engine)
            return real(*args, match_engine=match_engine, **kwargs)

        monkeypatch.setattr(replayer_perf, "TraceReplayer",
                            recording_replayer)
        stream, repeats = replayer_perf.periodic_stream(num_tokens=400)
        results = replayer_perf.measure_replayer_throughput(
            stream, repeats, engines=["scan", "automaton"], rounds=2
        )
        assert order == ["scan", "automaton", "scan", "automaton"]
        assert sorted(results) == ["automaton", "scan"]
