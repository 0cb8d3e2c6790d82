"""In-memory span tracer that charges self time to named layers.

Spans are recorded around calls into the program from the outside: the
benchmark wraps public entry points (``PRF.evaluate``, the protocol's role
objects, the wire codec, ``Channel.transmit``, fault oracles, the event
scheduler) and never edits the program itself.

A span's *self time* is its duration minus the durations of the spans
opened directly inside it, so the self times of every span opened under a
root add up to that root's duration.

Spans must nest.  That holds on every substrate the benchmark drives:
the wrapped methods are synchronous, so even on the asyncio cluster a
span opens and closes within one event-loop step, on top of the root
span that the cluster run holds open across its awaits.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Tracer", "instrument_methods"]


class Tracer:
    """Self time and call counts per span name, plus root durations."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[name, start, child seconds]``.
        self._stack: list[list[Any]] = []
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Summed duration of spans opened with no span around them.
        self.root_seconds = 0.0

    @property
    def active(self) -> bool:
        """True while some span is open."""
        return bool(self._stack)

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, started, children = self._stack.pop()
        duration = self._clock() - started
        self.self_seconds[name] = self.self_seconds.get(name, 0.0) + (duration - children)
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recorded as span *name* on every call."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def profiler(self, prefix: str) -> "_PrefixedProfiler":
        """A ``PhaseProfiler`` look-alike for :class:`repro.obs.ProfiledCodec`:
        its phase ``encode`` becomes span ``<prefix>.encode``."""
        return _PrefixedProfiler(self, prefix)

    def seconds(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


class _PrefixedProfiler:
    def __init__(self, tracer: Tracer, prefix: str) -> None:
        self._tracer = tracer
        self._prefix = prefix

    def phase(self, name: str):
        return self._tracer.span(f"{self._prefix}.{name}")


def instrument_methods(tracer: Tracer, obj: object, name: str, methods: tuple[str, ...]) -> None:
    """Shadow bound *methods* of one instance with traced versions."""
    for method in methods:
        setattr(obj, method, tracer.wrap(name, getattr(obj, method)))
