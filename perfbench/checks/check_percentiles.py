"""Percentile and sample-count reporting.

Run with ``python3 -m pytest -q perfbench/checks/check_*.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench.percentiles import (  # noqa: E402
    beyond,
    percentile,
    tail_summary,
)


def test_nearest_rank():
    ordered = list(range(1, 101))  # 1..100
    assert percentile(ordered, 50) == 50
    assert percentile(ordered, 99) == 99
    assert percentile(ordered, 100) == 100
    assert percentile(ordered, 0.5) == 1
    assert percentile([7], 99.9) == 7


def test_p999_of_a_thousand_samples_is_the_largest_but_one():
    ordered = list(range(1000))
    assert percentile(ordered, 99.9) == 998
    assert beyond(ordered, 998) == 1


def test_beyond_counts_strictly_greater_samples():
    ordered = [1, 2, 2, 3, 5, 5, 5]
    assert beyond(ordered, 2) == 4
    assert beyond(ordered, 5) == 0
    assert beyond(ordered, 0) == 7


def test_tail_summary_reports_samples_and_beyond():
    ordered = list(range(50_000))
    tail = tail_summary(ordered, 99.9)
    assert tail == {"value": 49_949, "samples": 50_000, "beyond": 50}
    assert tail["beyond"] >= 10  # the tail rests on enough samples


def test_ties_at_the_percentile_are_not_beyond_it():
    ordered = [1] * 990 + [9] * 10
    assert tail_summary(ordered, 99.9) == {
        "value": 9, "samples": 1000, "beyond": 0,
    }


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_rejects_out_of_range_percentiles(q):
    with pytest.raises(ValueError):
        percentile([1, 2, 3], q)


def test_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)
