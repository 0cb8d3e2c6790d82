"""Hooks that attach the tracer to the program's layers from outside.

Every hook wraps a public entry point and leaves the program's code
untouched:

* ``crypto``  — :meth:`repro.crypto.prf.PRF.evaluate`, patched at class
  level for the duration of a traced run only (:func:`traced_prf`);
* ``core``    — the role methods, through :class:`TracedProtocol`, a
  delegating facade over the protocol that hands out traced roles;
* ``wire``    — the facade's ``wire_codec()``, wrapped in
  :class:`repro.obs.ProfiledCodec`;
* ``cluster.idle`` — the event loop's ``select`` wait
  (:func:`idle_loop_factory`), the time the cluster's single loop
  thread sits blocked on sockets and timers.

Substrate-specific hooks (``Channel.transmit``, fault oracles, the event
scheduler) are attached per instance by :mod:`workloads`.
"""

from __future__ import annotations

import asyncio
import selectors
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.crypto.prf import PRF
from repro.obs import ProfiledCodec
from spans import Tracer, instrument_methods

__all__ = ["TracedProtocol", "traced_prf", "idle_loop_factory"]


class TracedProtocol:
    """Delegates to *protocol*; roles and the codec come back traced.

    Counts querier evaluations and how many of them ran on the
    reported-failure-subset path (``reporting_sources`` given).
    """

    def __init__(self, protocol, tracer: Tracer) -> None:
        self._protocol = protocol
        self._tracer = tracer
        self.evaluations = 0
        self.subset_evaluations = 0

    def __getattr__(self, name: str):
        return getattr(self._protocol, name)

    def create_source(self, source_id: int, **kwargs):
        role = self._protocol.create_source(source_id, **kwargs)
        instrument_methods(self._tracer, role, "core.source", ("initialize",))
        return role

    def create_aggregator(self, **kwargs):
        role = self._protocol.create_aggregator(**kwargs)
        instrument_methods(
            self._tracer, role, "core.aggregator", ("merge", "finalize_for_querier")
        )
        return role

    def create_querier(self, **kwargs):
        role = self._protocol.create_querier(**kwargs)
        traced = self._tracer.wrap("core.querier", role.evaluate)

        def evaluate(epoch, psr, *, reporting_sources=None):
            self.evaluations += 1
            if reporting_sources is not None:
                self.subset_evaluations += 1
            return traced(epoch, psr, reporting_sources=reporting_sources)

        role.evaluate = evaluate
        return role

    def wire_codec(self):
        return ProfiledCodec(self._protocol.wire_codec(), self._tracer.profiler("wire"))


@contextmanager
def traced_prf(tracer: Tracer) -> Iterator[None]:
    """Record every ``PRF.evaluate`` as span ``crypto.prf`` inside the block."""
    original = PRF.evaluate
    PRF.evaluate = tracer.wrap("crypto.prf", original)
    try:
        yield
    finally:
        PRF.evaluate = original


class _IdleSelector(selectors.DefaultSelector):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        if not self._tracer.active:
            return super().select(timeout)
        self._tracer.enter("cluster.idle")
        try:
            return super().select(timeout)
        finally:
            self._tracer.exit()


def idle_loop_factory(tracer: Tracer) -> Callable[[], asyncio.AbstractEventLoop]:
    """Loop factory for :class:`asyncio.Runner` whose ``select`` wait is
    recorded as ``cluster.idle`` while a span is open."""
    return lambda: asyncio.SelectorEventLoop(_IdleSelector(tracer))
