"""The run record's own rules, and `latency_percentile`.

`latency_percentile` must implement the true nearest-rank definition.
Regression suite for the `int(fraction * n)` off-by-one (p50 of
``[1, 2, 3, 4]`` came back 3 instead of 2): every value is checked
against an independently written reference implementation, both on
pinned cases and under a hypothesis sweep.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.network.ledger import EdgeClass, HopLedger
from repro.runtime.metrics import RunMetrics, latency_percentile


def test_rates_are_zero_without_wall_clock_seconds() -> None:
    traffic = HopLedger()
    counters = traffic.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    counters.attempts = counters.frames_sent = counters.frames_received = 4
    counters.delivered = counters.acks_sent = counters.acks_received = 4
    metrics = RunMetrics("runtime", "sies", 4, traffic=traffic)
    assert metrics.epochs_per_second() == metrics.frames_per_second() == 0.0
    metrics.wall_seconds = 2.0
    assert metrics.frames_per_second() == 4.0  # 4 frames + 4 ACKs


def test_the_record_checks_conservation_as_it_is_built() -> None:
    traffic = HopLedger()
    traffic.edge(EdgeClass.AGGREGATOR_TO_QUERIER).attempts = 1
    with pytest.raises(SimulationError, match="silent drop on A-Q"):
        RunMetrics("cluster", "sies", 4, traffic=traffic)


def test_conservation_names_the_broken_law() -> None:
    ledger = HopLedger()
    ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR).attempts = 1
    with pytest.raises(SimulationError, match="attempts == drops_injected"):
        ledger.check_conservation()


def _reference_nearest_rank(samples: list[float], fraction: float) -> float:
    """Textbook nearest-rank: the ceil(p*n)-th smallest value, 1-based."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank_one_based = math.ceil(fraction * len(ordered))
    rank_one_based = min(len(ordered), max(1, rank_one_based))
    return ordered[rank_one_based - 1]


def test_p50_of_four_samples_is_second_smallest() -> None:
    # The original bug: int(0.5 * 4) == 2 indexed the *third* smallest.
    assert latency_percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0


@pytest.mark.parametrize(
    ("samples", "fraction", "expected"),
    [
        ([5.0], 0.50, 5.0),
        ([1.0, 2.0], 0.50, 1.0),
        ([1.0, 2.0, 3.0], 0.50, 2.0),
        ([4.0, 1.0, 3.0, 2.0], 0.50, 2.0),  # order must not matter
        ([1.0, 2.0, 3.0, 4.0], 0.90, 4.0),
        ([1.0, 2.0, 3.0, 4.0], 0.25, 1.0),
        ([1.0, 2.0, 3.0, 4.0, 5.0], 0.99, 5.0),
        ([], 0.50, 0.0),
    ],
)
def test_pinned_nearest_rank_cases(
    samples: list[float], fraction: float, expected: float
) -> None:
    assert latency_percentile(samples, fraction) == expected


def test_extreme_fractions_clamp_to_min_and_max() -> None:
    samples = [7.0, 3.0, 9.0, 5.0]
    assert latency_percentile(samples, 0.0) == 3.0
    assert latency_percentile(samples, 1.0) == 9.0
    assert latency_percentile(samples, -0.5) == 3.0
    assert latency_percentile(samples, 1.5) == 9.0


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        max_size=200,
    ),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_matches_reference_implementation(samples: list[float], fraction: float) -> None:
    assert latency_percentile(samples, fraction) == _reference_nearest_rank(samples, fraction)


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=100,
    ),
    lo=st.floats(min_value=0.0, max_value=1.0),
    hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_monotone_in_fraction_and_returns_a_sample(
    samples: list[float], lo: float, hi: float
) -> None:
    if lo > hi:
        lo, hi = hi, lo
    assert latency_percentile(samples, lo) <= latency_percentile(samples, hi)
    assert latency_percentile(samples, lo) in samples
