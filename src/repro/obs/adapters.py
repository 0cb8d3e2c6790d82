"""Adapters feeding the unified trace from each substrate's hooks.

Three hook surfaces, one schema:

* :class:`ChannelTraceAdapter` — a PSR-level interceptor on the analytic
  :class:`~repro.network.channel.Channel` (lossless hops → ``send``
  events), run-scoped via the channel's ``begin_run`` listeners;
* :class:`TransportTraceAdapter` — the ``(kind, attrs)`` observer of
  the hop engine (:class:`~repro.runtime.hop.HopEngine`) both ARQ
  substrates drive (``RuntimeSimulator.set_observer`` and
  ``ClusterConfig.observer``), turning attempt/drop/deliver/duplicate/
  late/decode-failure/ack-lost/give-up events into :class:`ObsEvent`
  records.

The lower layers never import :mod:`repro.obs` — they emit plain
callables/dicts and these adapters do the schema mapping, keeping the
observability spine strictly on top of the substrates it observes.
"""

from __future__ import annotations

from repro.network.channel import Channel, EdgeClass
from repro.network.ledger import HopLedger
from repro.network.messages import DataMessage
from repro.obs.trace import TraceRecorder

__all__ = ["ChannelTraceAdapter", "TransportTraceAdapter"]


class ChannelTraceAdapter:
    """Records every analytic channel hop as a ``send`` event.

    The analytic :class:`~repro.network.simulator.NetworkSimulator` has
    lossless function-call links, so a hop observed is a hop delivered;
    :func:`~repro.obs.trace.trace_dispositions` treats ``send``
    accordingly.  Attach/detach are idempotent and the recorder is
    cleared on every ``begin_run``, so one recorder holds one run.
    Events carry hop metadata only, never PSR contents, so a trace file
    is safe to share.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        self._channel: Channel | None = None

    def attach(self, channel: Channel) -> None:
        if self._channel is channel:
            return
        if self._channel is not None:
            self.detach()
        channel.add_interceptor(self._observe)
        channel.add_run_listener(self._on_begin_run)
        self._channel = channel

    def detach(self) -> None:
        if self._channel is None:
            return
        self._channel.remove_interceptor(self._observe)
        self._channel.remove_run_listener(self._on_begin_run)
        self._channel = None

    def _on_begin_run(self, ledger: HopLedger) -> None:
        self.recorder.reset()

    def _observe(self, message: DataMessage, edge: EdgeClass) -> DataMessage:
        self.recorder.record(
            "send",
            epoch=message.epoch,
            edge=edge.value,
            sender=message.sender,
            receiver=message.receiver,
            wire_bytes=message.wire_size(),
            psr_type=type(message.psr).__name__,
        )
        return message


class TransportTraceAdapter:
    """``(kind, attrs)`` observer → :class:`ObsEvent` records.

    Works unchanged as ``RuntimeSimulator.set_observer(adapter)`` and as
    the cluster's ``observer`` (both emit the same attribute keys:
    ``time``, ``epoch``, ``uid``, ``attempt``, ``edge``, ``sender``,
    ``receiver``, optional ``cause``).
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def __call__(self, kind: str, attrs: dict) -> None:
        self.recorder.record(
            kind,
            epoch=attrs["epoch"],
            edge=attrs["edge"],
            sender=attrs["sender"],
            receiver=attrs["receiver"],
            time=attrs.get("time"),
            attempt=attrs.get("attempt"),
            uid=attrs.get("uid"),
            wire_bytes=attrs.get("bytes"),
            detail=attrs.get("cause"),
        )
