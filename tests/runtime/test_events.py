"""The discrete-event scheduler: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.runtime.events import EventScheduler


def test_fires_in_time_order() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []
    scheduler.call_at(5.0, lambda: fired.append("late"))
    scheduler.call_at(1.0, lambda: fired.append("early"))
    scheduler.call_at(3.0, lambda: fired.append("middle"))
    scheduler.run()
    assert fired == ["early", "middle", "late"]
    assert scheduler.now == 5.0


def test_ties_break_by_scheduling_order() -> None:
    scheduler = EventScheduler()
    fired: list[int] = []
    for i in range(10):
        scheduler.call_at(2.0, lambda i=i: fired.append(i))
    scheduler.run()
    assert fired == list(range(10))


def test_events_scheduled_while_running() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []

    def first() -> None:
        fired.append("first")
        scheduler.call_later(1.0, lambda: fired.append("nested"))

    scheduler.call_at(1.0, first)
    scheduler.call_at(1.5, lambda: fired.append("between"))
    scheduler.run()
    assert fired == ["first", "between", "nested"]


def test_cancellation() -> None:
    scheduler = EventScheduler()
    fired: list[str] = []
    doomed = scheduler.call_at(2.0, lambda: fired.append("doomed"))
    scheduler.call_at(1.0, doomed.cancel)
    scheduler.call_at(3.0, lambda: fired.append("survivor"))
    scheduler.run()
    assert fired == ["survivor"]


def test_cannot_schedule_into_the_past() -> None:
    scheduler = EventScheduler()
    scheduler.call_at(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.call_later(-0.1, lambda: None)


def test_runaway_loop_detected() -> None:
    scheduler = EventScheduler()

    def reschedule() -> None:
        scheduler.call_later(1.0, reschedule)

    scheduler.call_at(0.0, reschedule)
    with pytest.raises(SimulationError, match="event budget"):
        scheduler.run(max_events=1000)


def test_until_predicate_stops_the_loop() -> None:
    scheduler = EventScheduler()
    fired: list[int] = []
    for i in range(5):
        scheduler.call_at(float(i), lambda i=i: fired.append(i))
    scheduler.run(until=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]
    assert scheduler.pending == 2


def test_same_time_events_fire_in_scheduling_order_across_nesting() -> None:
    """Ties are settled by the sequence number alone, including events
    scheduled for the current instant from inside a callback."""
    scheduler = EventScheduler()
    fired: list[str] = []

    def spawn() -> None:
        fired.append("spawn")
        scheduler.call_later(0.0, lambda: fired.append("child"))

    scheduler.call_at(1.0, spawn)
    scheduler.call_at(1.0, lambda: fired.append("sibling"))
    scheduler.run()
    assert fired == ["spawn", "sibling", "child"]


def test_cancelled_events_are_skipped_and_not_counted() -> None:
    scheduler = EventScheduler()
    fired: list[int] = []
    events = [scheduler.call_at(1.0, lambda i=i: fired.append(i)) for i in range(4)]
    events[1].cancel()
    events[3].cancel()
    scheduler.run()
    assert fired == [0, 2]
    assert scheduler.events_processed == 2
    assert scheduler.now == 1.0


def test_pending_ignores_cancelled_entries() -> None:
    scheduler = EventScheduler()
    events = [scheduler.call_at(float(i), lambda: None) for i in range(5)]
    assert scheduler.pending == 5
    events[0].cancel()
    events[4].cancel()
    assert scheduler.pending == 3
    scheduler.run()
    assert scheduler.pending == 0


def test_next_time_skips_cancelled_events() -> None:
    scheduler = EventScheduler()
    assert scheduler.next_time() is None
    doomed = scheduler.call_at(1.0, lambda: None)
    scheduler.call_at(2.0, lambda: None)
    assert scheduler.next_time() == 1.0
    doomed.cancel()
    assert scheduler.next_time() == 2.0
    assert scheduler.pending == 1


def test_run_at_schedules_relative_to_its_time_and_restores_the_clock() -> None:
    scheduler = EventScheduler()
    fired: list[tuple[str, float]] = []
    scheduler.call_at(1.0, lambda: fired.append(("timer", scheduler.now)))
    scheduler.run()
    scheduler.run_at(
        3.0, lambda: scheduler.call_later(0.5, lambda: fired.append(("armed", scheduler.now)))
    )
    assert scheduler.now == 1.0
    scheduler.run()
    assert fired == [("timer", 1.0), ("armed", 3.5)]
    assert scheduler.events_processed == 2
    with pytest.raises(SimulationError):
        scheduler.run_at(2.0, lambda: None)  # before the last event run
