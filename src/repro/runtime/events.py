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
and never reaches the event itself.  An event is only the handle of
its heap entry: a slotted action that :meth:`ScheduledEvent.cancel`
clears.  :meth:`~EventScheduler.call_later` — every ARQ timeout,
arrival and ACK of both ARQ substrates — builds its entry itself, one
call deep.  The TCP cluster's clock
(:class:`repro.cluster.orchestrator.ScheduledClock`) drives the same
scheduler from its event loop: :meth:`EventScheduler.next_time` says when
the next timer is due, and :meth:`EventScheduler.run_at` runs a received
frame's handler at the frame's write time.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = ["EventScheduler", "ScheduledEvent"]

_push = heapq.heappush


class ScheduledEvent:
    """A pending callback; the heap entry ``(time, seq, event)`` holds its time."""

    __slots__ = ("action",)

    def __init__(self, action: Callable[[], None]) -> None:
        #: The callback, or ``None`` once cancelled.
        self.action: Callable[[], None] | None = action

    def cancel(self) -> None:
        """Mark the event dead (and drop its callback); the scheduler skips it on pop."""
        self.action = None


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
        return sum(1 for _, _, event in self._heap if event.action is not None)

    def call_at(self, when: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule *action* at absolute logical time *when*."""
        if not when >= self._now:  # also refuses a NaN time
            raise SimulationError(
                f"cannot schedule at {when}: not at or after now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(action)
        _push(self._heap, (when, seq, event))
        return event

    def call_later(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Schedule *action* after a non-negative logical *delay*."""
        if not delay >= 0:  # also refuses a NaN delay
            raise SimulationError(f"delay must be non-negative, got {delay}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(action)
        _push(self._heap, (self._now + delay, seq, event))
        return event

    def next_time(self) -> float | None:
        """Time of the earliest live event (cancelled ones are dropped first), or None."""
        heap = self._heap
        while heap and heap[0][2].action is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_at(self, when: float, action: Callable[[], None]) -> None:
        """Run *action* at once, outside the heap, as if at logical time *when*.

        Whatever *action* schedules is relative to *when*; afterwards the
        clock is back at the last event's time.  *when* may not precede
        that time: a callback cannot run before an event already run.
        """
        now = self._now
        if not when >= now:
            raise SimulationError(f"cannot run at {when}: before now={now}")
        self._now = when
        try:
            action()
        finally:
            self._now = now

    def run(self, *, until: Callable[[], bool] | None = None, max_events: int = 10_000_000) -> None:
        """Process events in order until the heap drains (or *until* is true).

        *max_events* is a runaway backstop: a transport bug that
        reschedules forever should fail loudly, not hang the suite.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            if until is not None and until():
                return
            when, _, event = pop(heap)
            action = event.action
            if action is None:
                continue
            self._now = when
            action()
            self._processed += 1
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events — "
                    "likely a rescheduling loop in a timer"
                )
