"""The event-scheduler driver of the per-hop ARQ.

Every decision of the hop — verdicts, copies, timeouts, give-up, dedup,
ACK fate, accounting — comes from :class:`~repro.runtime.hop.HopEngine`.
This module only turns those answers into scheduler events:

* each physical attempt first passes through the legitimate
  :class:`~repro.network.channel.Channel` (so adversary interceptors
  and byte counters see retransmissions exactly like first attempts);
  the channel and the engine fill one ledger, the channel's;
  the frame is encoded once per parcel and every attempt replays the
  identical bytes;
* every surviving copy becomes an arrival event after its keyed link
  latency, every surviving ACK an ACK event after its keyed return
  latency;
* every attempt arms a retransmission timer, whatever the link did —
  the sender cannot observe loss, only missing ACKs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.network.channel import Channel, EdgeClass
from repro.network.ledger import HopLedger
from repro.network.messages import DataMessage
from repro.runtime.events import EventScheduler, ScheduledEvent
from repro.runtime.faults import KeyedFaultInjector
from repro.runtime.hop import (
    DELIVERED,
    HopEngine,
    Parcel,
    RetransmitPolicy,
    TransportObserver,
)

__all__ = ["RetransmitPolicy", "RuntimeParcel", "ReliableTransport"]

#: Application delivery callback: (delivered message, manifest).  May
#: return :data:`~repro.runtime.hop.LATE` to classify the copy as late;
#: anything else counts as delivered.
DeliverFn = Callable[[DataMessage, frozenset[int]], "str | None"]


@dataclass(eq=False)
class RuntimeParcel(Parcel):
    """A parcel plus the runtime's in-flight state."""

    message: DataMessage | None = None
    on_deliver: DeliverFn | None = None
    timer: ScheduledEvent | None = field(default=None, repr=False)
    #: Wire encoding from the first attempt, replayed by retransmissions.
    frame: bytes | None = field(default=None, repr=False)


class ReliableTransport:
    """Drives one :class:`HopEngine` for every hop of the runtime."""

    def __init__(
        self,
        scheduler: EventScheduler,
        injector: KeyedFaultInjector,
        channel: Channel,
        policy: RetransmitPolicy,
        *,
        seed: int = 0,
        observer: TransportObserver | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.injector = injector
        self.channel = channel
        self.engine = HopEngine(
            injector,
            policy,
            channel.ledger,
            seed=seed,
            now=lambda: scheduler.now,
            observer=observer,
        )

    @property
    def ledger(self) -> HopLedger:
        return self.engine.ledger

    def send(
        self,
        message: DataMessage,
        edge: EdgeClass,
        manifest: frozenset[int],
        *,
        on_deliver: DeliverFn | None = None,
    ) -> RuntimeParcel:
        """Hand one message (its epoch is the parcel uid) to the ARQ."""
        parcel = RuntimeParcel(
            sender=message.sender,
            receiver=message.receiver,
            edge=edge,
            uid=message.epoch,
            manifest=manifest,
            message=message,
            on_deliver=on_deliver,
        )
        self._attempt(parcel)
        return parcel

    def _attempt(self, parcel: RuntimeParcel) -> None:
        message = parcel.message
        if parcel.frame is None:
            parcel.frame = self.channel.codec.encode(message.psr)
        outcome = self.channel.transmit(message, parcel.edge, frame=parcel.frame)
        copies, timeout = self.engine.attempt(parcel, swallowed=outcome is None)
        if copies:
            index = parcel.attempts - 1
            for latency in self.injector.data_latencies(
                parcel.sender, parcel.receiver, parcel.edge, parcel.uid, index, copies
            ):
                self.scheduler.call_later(
                    latency, lambda m=outcome, a=index: self._arrive(parcel, m, a)
                )
        parcel.timer = self.scheduler.call_later(timeout, lambda: self._expire(parcel))

    def _expire(self, parcel: RuntimeParcel) -> None:
        if self.engine.expire(parcel):
            self._attempt(parcel)

    def _arrive(self, parcel: RuntimeParcel, message: DataMessage, attempt: int) -> None:
        def classify() -> str:
            if parcel.on_deliver is None:
                return DELIVERED
            return parcel.on_deliver(message, parcel.manifest) or DELIVERED

        if self.engine.receive(
            parcel.sender, parcel.receiver, parcel.edge, parcel.uid, attempt, classify
        ):
            delay = self.injector.ack_latency(
                parcel.sender, parcel.receiver, parcel.edge, parcel.uid, attempt
            )
            self.scheduler.call_later(delay, lambda: self._ack(parcel))

    def _ack(self, parcel: RuntimeParcel) -> None:
        if self.engine.ack_arrived(parcel.edge, parcel) and parcel.timer is not None:
            parcel.timer.cancel()
            parcel.timer = None
