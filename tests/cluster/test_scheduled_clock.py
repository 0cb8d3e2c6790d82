"""The cluster's clock rule, driven by hand on a real event loop.

:class:`~repro.cluster.orchestrator.ScheduledClock` runs every timer in
scheduled-time order, handles each frame at its write time, and lets a
timer run only once the loop clock has reached it and no frame written
at or before it is still in flight.  Here the "frames" are in-flight
records written and read by hand, without sockets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.orchestrator import ScheduledClock
from repro.errors import SimulationError

pytestmark = pytest.mark.cluster


def _clock() -> ScheduledClock:
    return ScheduledClock(asyncio.get_running_loop(), lambda fn, *args: fn(*args))


def test_a_due_timer_waits_for_a_frame_written_before_it() -> None:
    async def scenario() -> list[str]:
        clock, log = _clock(), []

        def first() -> None:
            clock.wrote("up", (1, 0))
            clock.call_later(0.010, lambda: log.append("armed first, due at 0.010"))

        def handle(verdict: object) -> None:
            log.append("frame")
            # Relative to the frame's write time, 0: due before the other timer.
            clock.call_later(0.005, lambda: log.append("armed by the frame, due at 0.005"))

        clock.start(first)
        await asyncio.sleep(0.05)  # both timers are due on the loop clock by now
        assert log == []
        clock.receive(clock.arrive, "up", (1, 0), handle)
        clock.stop()
        return log

    assert asyncio.run(scenario()) == [
        "frame", "armed by the frame, due at 0.005", "armed first, due at 0.010"
    ]


def test_the_loop_clock_paces_the_timers() -> None:
    async def scenario() -> tuple[list[str], list[str]]:
        clock, log = _clock(), []
        clock.start(lambda: clock.call_later(0.2, lambda: log.append("timer")))
        await asyncio.sleep(0.02)
        early = list(log)
        await asyncio.sleep(0.5)
        clock.stop()
        return early, log

    early, late = asyncio.run(scenario())
    assert early == [] and late == ["timer"]


def test_a_dropped_connection_unblocks_its_timers_and_ignores_later_writes() -> None:
    async def scenario() -> list[str]:
        clock, log = _clock(), []

        def first() -> None:
            clock.wrote("down", (1, 0))
            clock.call_later(0.001, lambda: log.append("timer"))

        clock.start(first)
        await asyncio.sleep(0.02)
        assert log == []
        clock.discard("down")
        assert log == ["timer"]
        clock.wrote("down", (2, 0))  # the reading end is gone: never waited for
        clock.call_later(0.001, lambda: log.append("next"))
        clock.pump()
        await asyncio.sleep(0.02)
        clock.stop()
        return log

    assert asyncio.run(scenario()) == ["timer", "next"]


def test_a_frame_that_is_not_the_next_one_written_is_refused() -> None:
    async def scenario() -> None:
        clock = _clock()
        clock.wrote("up", (1, 0), None)
        with pytest.raises(SimulationError, match="next one written there was"):
            clock.arrive("up", (1, 1), lambda verdict: None)
        with pytest.raises(SimulationError, match="was None"):
            clock.arrive("up", (1, 0), lambda verdict: None)
        clock.stop()

    asyncio.run(scenario())
