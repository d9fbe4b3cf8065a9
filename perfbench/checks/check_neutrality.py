"""Tracing wraps layers without changing what they decide.

Run with ``python3 -m pytest -q perfbench/checks/check_*.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench.layers import (  # noqa: E402
    PER_LAYER,
    LayerProbe,
    per_layer_metrics,
)
from perfbench.measure import END_TO_END  # noqa: E402
from perfbench.workloads import WORKLOADS, run_baseline, run_pass  # noqa: E402

#: Long enough for mining jobs, ingestion and fired traces at the
#: paper-default sizing (5000-token buffer, a job every 250 tasks).
SMALL = 12_000


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapping_the_layers_leaves_decisions_unchanged(name):
    workload = WORKLOADS[name]
    timed = run_pass(workload, seed=3, tasks=SMALL)
    probe = LayerProbe()
    traced = run_pass(workload, seed=3, tasks=SMALL, probe=probe)
    assert timed.problems == [] and traced.problems == []
    assert traced.digests == timed.digests
    assert traced.virtual_s == timed.virtual_s
    assert timed.tasks_traced > 0  # the stream replayed something
    # Every layer on the path was entered.
    names = set(probe.tracer.names)
    assert {"api.submit", "hashing.hash_task", "finder.observe",
            "replayer.process", "matching.advance", "scoring.select",
            "candidates.ingest", "runtime.execute_task"} <= names
    assert ("service.lane_submit" in names) == (name == "fleet")


def test_per_layer_metrics_cover_the_pass():
    workload = WORKLOADS["adversarial"]
    timed = run_pass(workload, seed=5, tasks=SMALL)
    probe = LayerProbe()
    traced = run_pass(workload, seed=5, tasks=SMALL, probe=probe)
    baseline = run_baseline(workload, seed=5, tasks=SMALL)
    values = per_layer_metrics(
        probe, traced, timed.wall_s / timed.slowdown, baseline
    )
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["hashing.calls"] == SMALL
    assert values["repeats.calls"] == values["finder.jobs_submitted"]
    assert 0.9 < values["trace.coverage"] <= 1.0
    shares = sum(v for k, v in values.items() if k.endswith(".share"))
    assert shares == pytest.approx(values["trace.coverage"])
    assert values["service.self_s"] == 0


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "steady", "adversarial", "fleet",
    ]
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
