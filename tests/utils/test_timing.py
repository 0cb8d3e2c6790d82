"""Timing statistics and the micro-benchmark helper."""

from __future__ import annotations

import pytest

from repro.utils.timing import TimingStats, time_operation


def test_stats_summary() -> None:
    stats = TimingStats()
    for s in (1.0, 2.0, 3.0, 4.0):
        stats.add(s)
    assert stats.count == 4
    assert stats.total == 10.0
    assert stats.mean == 2.5
    assert stats.median == 2.5
    assert stats.minimum == 1.0
    assert stats.maximum == 4.0
    assert stats.stddev == pytest.approx(1.2909944, rel=1e-6)


def test_stats_odd_median_and_empty() -> None:
    stats = TimingStats(samples=[3.0, 1.0, 2.0])
    assert stats.median == 2.0
    empty = TimingStats()
    assert empty.mean == empty.median == empty.stddev == 0.0


def test_time_operation_counts_and_amortizes() -> None:
    calls = []
    stats = time_operation(lambda: calls.append(1), repeat=3, inner_loops=4, warmup=2)
    assert stats.count == 3
    assert len(calls) == 3 * 4 + 2 * 4
    assert all(s >= 0 for s in stats.samples)
