"""Wall-clock measurement utilities for the experiment harness.

Summary statistics over repeated timing samples, plus a
repeat-and-summarize helper for micro-benchmarks of the Table II
constants.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["TimingStats", "time_operation"]


@dataclass
class TimingStats:
    """Summary statistics (seconds) over repeated timing samples."""

    samples: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def median(self) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1))


def time_operation(
    operation: Callable[[], object],
    *,
    repeat: int = 5,
    inner_loops: int = 1,
    warmup: int = 1,
) -> TimingStats:
    """Time *operation* ``repeat`` times, amortizing over ``inner_loops``.

    Each recorded sample is the mean per-call time of one batch of
    ``inner_loops`` invocations; *warmup* unrecorded batches run first so
    Python-level caches (bytecode specialization, hash backends) settle.
    """
    stats = TimingStats()
    for _ in range(warmup):
        for _ in range(inner_loops):
            operation()
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(inner_loops):
            operation()
        elapsed = time.perf_counter() - start
        stats.add(elapsed / inner_loops)
    return stats
