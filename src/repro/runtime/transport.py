"""The one driver of the per-hop ARQ, on a handed timer.

Every decision of the hop — verdicts, copies, timeouts, give-up, dedup,
ACK fate, accounting — comes from :class:`~repro.runtime.hop.HopEngine`.
:class:`ReliableTransport` only turns those answers into timer callbacks
and link writes, and owns no scheduler, loop or socket: it is handed a
timer (``now()``, ``call_later(delay, fn)`` returning a handle with
``cancel()``), a ``wire`` step (the channel's sender side, run once per
attempt on the parcel's one encoding; ``None`` = the channel ate it), a
``put`` link for the copies the engine answers, and the receivers'
``deliver``, routed by the parcel uid, never by the frame header.

Every attempt arms a retransmission timer, whatever the link did — the
sender cannot observe loss, only missing ACKs.  A parcel stops on its
first ACK or when the engine gives it up; *on_finished* hears of either
once.  :func:`scheduled_transport` builds the event runtime's driver;
the TCP cluster's orchestrator hands its running loop, the channel's
``emit`` and envelope writes on the sender's uplink.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.network.channel import Channel, EdgeClass
from repro.network.ledger import HopLedger
from repro.network.messages import DataMessage
from repro.runtime.events import EventScheduler
from repro.runtime.faults import KeyedFaultInjector
from repro.runtime.hop import DECODE_FAILURE, DELIVERED, HopEngine, Parcel, RetransmitPolicy, TransportObserver

if TYPE_CHECKING:
    from repro.protocols.base import PartialStateRecord

__all__ = ["RetransmitPolicy", "RuntimeParcel", "ReliableTransport", "scheduled_transport"]


class TimerHandle(Protocol):
    """What ``call_later`` returns (a ``ScheduledEvent``, an ``asyncio.TimerHandle``)."""

    def cancel(self) -> None: ...


#: ``deliver(receiver, epoch, psr, manifest)``: the receiving epoch machine takes
#: one first copy and returns its disposition; ``None`` counts as delivered.
DeliverFn = Callable[[int, int, "PartialStateRecord", frozenset[int]], "str | None"]


@dataclass(eq=False)
class RuntimeParcel(Parcel):
    """A parcel plus the driver's in-flight state."""

    message: DataMessage = field(kw_only=True)
    #: Wire encoding from :meth:`ReliableTransport.send`, replayed by every attempt.
    frame: bytes = field(kw_only=True, repr=False)
    timer: TimerHandle | None = field(default=None, repr=False)


class ReliableTransport:
    """Drives one :class:`HopEngine` for every hop of a run.

    One driver serves a whole fleet: links and ``(sender, uid)`` keys
    never overlap between nodes, so the sender's id and the parcel uid
    route every ACK to its parcel.
    """

    def __init__(
        self,
        injector: KeyedFaultInjector,
        policy: RetransmitPolicy,
        ledger: HopLedger,
        *,
        seed: int,
        now: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], TimerHandle],
        encode: Callable[["PartialStateRecord"], bytes],
        wire: Callable[[DataMessage, EdgeClass, bytes], Any],
        put: Callable[[RuntimeParcel, Any, int, int], None],
        deliver: DeliverFn,
        on_finished: Callable[[RuntimeParcel], None] | None = None,
        observer: TransportObserver | None = None,
    ) -> None:
        self.engine = HopEngine(injector, policy, ledger, seed=seed, now=now, observer=observer)
        self._call_later = call_later
        self._encode = encode
        self._wire = wire
        self._put = put
        self._deliver = deliver
        self._on_finished = on_finished
        #: ``(sender, uid)`` → the parcel, until it stops.
        self._open: dict[tuple[int, int], RuntimeParcel] = {}

    @property
    def ledger(self) -> HopLedger:
        return self.engine.ledger

    def send(self, message: DataMessage, edge: EdgeClass) -> RuntimeParcel:
        """Hand one message (its epoch is the parcel uid) to the ARQ."""
        parcel = RuntimeParcel(
            message.sender, message.receiver, edge, message.epoch,
            message=message, frame=self._encode(message.psr),
        )
        self._open[(parcel.sender, parcel.uid)] = parcel
        self._attempt(parcel)
        return parcel

    def ack(self, sender: int, edge: EdgeClass, uid: int) -> None:
        """One ACK is back at *sender*: the first stops its parcel, a later one is only counted."""
        parcel = self._open.get((sender, uid))
        if self.engine.ack_arrived(edge, parcel) and parcel is not None:
            if parcel.timer is not None:
                parcel.timer.cancel()
            self._finish(parcel)

    def _attempt(self, parcel: RuntimeParcel) -> None:
        payload = self._wire(parcel.message, parcel.edge, parcel.frame)
        copies, timeout = self.engine.attempt(parcel, swallowed=payload is None)
        if copies:
            self._put(parcel, payload, parcel.attempts - 1, copies)
        parcel.timer = self._call_later(timeout, lambda: self._expire(parcel))

    def _expire(self, parcel: RuntimeParcel) -> None:
        if self.engine.expire(parcel):
            self._attempt(parcel)
        elif parcel.failed:  # not when an ACK got in after the timer fired
            self._finish(parcel)

    def _finish(self, parcel: RuntimeParcel) -> None:
        del self._open[(parcel.sender, parcel.uid)]
        parcel.timer = None  # the timer's callback refers back to the parcel
        if self._on_finished is not None:
            self._on_finished(parcel)

    def receive(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int,
        open_copy: Callable[[], DataMessage | None],
    ) -> bool:
        """Account one copy arriving at *receiver*; True when its ACK must go back.

        *open_copy* runs for a first copy only: the message the channel
        delivers, or ``None`` when it rejected the frame (a decode failure).
        """

        def classify() -> str:
            message = open_copy()
            if message is None:
                return DECODE_FAILURE
            return self._deliver(receiver, uid, message.psr, message.manifest) or DELIVERED

        return self.engine.receive(sender, receiver, edge, uid, attempt, classify)


def scheduled_transport(
    scheduler: EventScheduler, injector: KeyedFaultInjector, channel: Channel,
    policy: RetransmitPolicy, *, seed: int, deliver: DeliverFn,
    observer: TransportObserver | None = None,
) -> ReliableTransport:
    """The event runtime's driver: on *scheduler*, every copy and ACK an
    event after its keyed latency.

    Each attempt runs both halves of the channel at once
    (``channel.transmit``, looked up per attempt so a hook on the
    instance sees every attempt): interceptors see retransmissions like
    first attempts, and a dropped attempt never reaches the link.
    """

    def put(parcel: RuntimeParcel, message: DataMessage, attempt: int, copies: int) -> None:
        sender, receiver, edge, uid = parcel.sender, parcel.receiver, parcel.edge, parcel.uid
        for latency in injector.data_latencies(sender, receiver, edge, uid, attempt, copies):
            scheduler.call_later(latency, lambda: arrive(parcel, message, attempt))

    def arrive(parcel: RuntimeParcel, message: DataMessage, attempt: int) -> None:
        sender, receiver, edge, uid = parcel.sender, parcel.receiver, parcel.edge, parcel.uid
        if transport.receive(sender, receiver, edge, uid, attempt, lambda: message):
            scheduler.call_later(
                injector.ack_latency(sender, receiver, edge, uid, attempt),
                lambda: transport.ack(sender, edge, uid),
            )

    transport = ReliableTransport(
        injector, policy, channel.ledger, seed=seed, now=lambda: scheduler.now,
        call_later=scheduler.call_later, encode=channel.codec.encode,
        wire=lambda message, edge, frame: channel.transmit(message, edge, frame=frame),
        put=put, deliver=deliver, observer=observer,
    )
    return transport
