"""Deterministic discrete-event scheduler for the fault-injecting runtime.

The runtime must replay bit-identically run-to-run — acceptance tests
compare whole metrics ledgers across runs — so time here is *logical*:
a monotonically increasing float advanced only by event processing,
never by wall clocks.  Determinism rests on two invariants:

* events fire in ``(time, sequence)`` order, where the sequence number
  is assigned at scheduling time — ties are broken by scheduling order,
  which is itself deterministic;
* no component reads ``time.time()``/``random`` globals: fault verdicts,
  delays and backoff jitter are keyed digests of their attempt
  coordinate (:class:`~repro.runtime.faults.KeyedFaultInjector`).

The scheduler is intentionally minimal (a binary heap of
``(time, sequence, event)`` tuples and a cancel flag): protocols and
transports build timers, timeouts and deadlines out of
:meth:`EventScheduler.call_at` / :meth:`call_later` alone.  The unique
sequence number settles every tie, so the heap compares plain tuples
and never reaches the event itself.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["EventScheduler", "ScheduledEvent"]


@dataclass
class ScheduledEvent:
    """A pending callback, queued at ``(time, seq)``."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; the scheduler skips it on pop."""
        self.cancelled = True


class EventScheduler:
    """A logical-clock event loop (smallest ``(time, seq)`` first)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._processed = 0

    @property
    def now(self) -> float:
        """Current logical time (advances only when events fire)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def call_at(self, when: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule *action* at absolute logical time *when*."""
        if not when >= self._now:  # also refuses a NaN time
            raise SimulationError(
                f"cannot schedule at {when}: not at or after now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time=when, seq=seq, action=action)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def call_later(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule *action* after a non-negative logical *delay*."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, action)

    def run(self, *, until: Callable[[], bool] | None = None, max_events: int = 10_000_000) -> None:
        """Process events in order until the heap drains (or *until* is true).

        *max_events* is a runaway backstop: a transport bug that
        reschedules forever should fail loudly, not hang the suite.
        """
        heap = self._heap
        processed = 0
        while heap:
            if until is not None and until():
                return
            when, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = when
            event.action()
            self._processed += 1
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events — "
                    "likely a rescheduling loop in a timer"
                )
