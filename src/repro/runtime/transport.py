"""The per-hop ARQ, as one class on a handed timer.

Real WSN MAC layers retransmit unacknowledged frames a bounded number
of times; SIES rides on that and recovers whatever still gets lost via
the reporting-subset mechanism (paper Section IV-B).
:class:`ReliableTransport` is that hop on both ARQ substrates, and owns
no scheduler, loop or socket.  It is handed a timer (``now()``,
``call_later(delay, fn)`` returning a handle with ``cancel()``), a
``put`` link for the copies the keyed schedule lets through, and the
receivers' ``deliver``, routed by the parcel uid, never by the frame
header.  It runs both halves of the channel itself, under the
interceptor contract :mod:`repro.network.channel` states:

* **sender half** — every attempt runs the channel's ``emit`` on the
  parcel's one encoding (``None`` = the channel ate it), asks the keyed
  fault oracle for its one verdict, puts 0, 1 or 2 copies of the frame
  on the link and arms an ACK timeout (exponential backoff, jitter from
  the verdict), whatever the link did — the sender cannot observe loss,
  only missing ACKs.  A parcel stops on its first ACK or gives up with
  its retry budget spent; *on_finished* hears of either once;
* **receiver half** — :meth:`ReliableTransport.receive` suppresses
  duplicates by ``(sender, uid)``, runs the channel's ``accept`` on
  each first copy, has ``deliver`` classify what it returns (delivered,
  late, or decode failure), and reads from the attempt's verdict,
  which the link carries to every copy, whether the ACK — sent for
  *every* received copy — survives the way back;
* every outcome is counted into the channel's per-edge-class
  :class:`~repro.network.ledger.HopLedger` — a parcel's attempts and
  ACKs into the :class:`~repro.network.ledger.EdgeCounters` it
  resolved once, at :meth:`ReliableTransport.send` — whose
  :meth:`~repro.network.ledger.HopLedger.check_conservation` proves no
  frame was dropped silently, and, with an observer attached (and only
  then: without one no event is built), reported as a ``(kind, attrs)``
  event to the :data:`TransportObserver` through :func:`emit_hop`, the
  emit helper every substrate's hop path shares.

A :class:`Parcel` is slotted and holds the PSR and its manifest
directly: a send builds no :class:`~repro.network.messages.DataMessage`;
the receiving side gets one per first copy, from the channel.

:func:`scheduled_transport` builds the event runtime's transport on its
scheduler and keyed-latency arrival events (the copies of one attempt
share one arrival callback); the TCP cluster's orchestrator hands its
scheduled-time clock and envelope writes on the sender's uplink, whose
in-flight record carries the verdict to the receiving node.  Either way each attempt is hashed
once.  A parcel's uid is its epoch on both substrates — each hop
carries one parcel per epoch.

:func:`parcel_fate` replays one parcel's ARQ against the keyed schedule
before any run; :meth:`repro.runtime.epoch.EpochPlanner.predict` walks
it up the tree.  Both are test oracles: no substrate decision reads them.

A sender giving up does **not** retract a copy that actually arrived
(the ACK may be the lost half): correctness downstream derives from
what receivers really merged, never from sender-side beliefs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import ParameterError, SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.network.ledger import EdgeCounters
from repro.runtime.events import EventScheduler
from repro.runtime.faults import KeyedFaultInjector, KeyedVerdict

if TYPE_CHECKING:
    from repro.protocols.base import PartialStateRecord

__all__ = [
    "DELIVERED",
    "LATE",
    "DECODE_FAILURE",
    "RetransmitPolicy",
    "Parcel",
    "ReliableTransport",
    "TransportObserver",
    "emit_hop",
    "parcel_fate",
    "scheduled_transport",
]

#: Observability hook: ``(event kind, attributes)`` per hop event.
#: Kinds: ``attempt``, ``drop``, ``deliver``, ``duplicate``, ``late``,
#: ``decode_failure``, ``ack_lost``, ``give_up``.  Kept as a plain
#: callable so the ARQ stays below :mod:`repro.obs` in the layering
#: (:class:`~repro.obs.trace.TraceRecorder` is one).
TransportObserver = Callable[[str, dict], None]


def emit_hop(
    observer: TransportObserver,
    kind: str,
    sender: int,
    receiver: int,
    edge: EdgeClass,
    uid: int,
    attempt: int,
    time: float | None,
    **extra: object,
) -> None:
    """Report one hop event to *observer* in the shared attribute schema.

    Keys: ``time`` (the driver's clock, ``None`` on the zero-time
    analytic substrate), ``epoch`` and ``uid`` (a parcel's uid is its
    epoch), ``attempt``, ``edge``, ``sender``, ``receiver``, plus
    *extra* (``cause`` on drops).
    """
    attrs: dict = {
        "time": time,
        "epoch": uid,
        "uid": uid,
        "attempt": attempt,
        "edge": edge.value,
        "sender": sender,
        "receiver": receiver,
    }
    attrs.update(extra)
    observer(kind, attrs)

#: Dispositions of a first copy, as ``deliver`` classifies it (these
#: are also the trace kinds the ARQ emits for it).
DELIVERED = "deliver"
LATE = "late"
DECODE_FAILURE = "decode_failure"


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retry budget and backoff shape of the per-hop ARQ.

    Attempt ``a`` (0-based) waits ``ack_timeout * backoff**a`` scaled
    by ``1 + uniform(0, jitter)`` before retransmitting — classic
    truncated exponential backoff with jitter to de-synchronize
    colliding retransmitters.
    """

    max_retries: int = 4
    ack_timeout: float = 12.0
    backoff: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        for name in ("ack_timeout", "backoff", "jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.ack_timeout <= 0:
            raise ParameterError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.backoff < 1.0:
            raise ParameterError(f"backoff must be >= 1, got {self.backoff}")
        if self.jitter < 0:
            raise ParameterError(f"jitter must be non-negative, got {self.jitter}")

    def timeout_for(self, attempt: int, u: float) -> float:
        """Deadline delay before retransmission *attempt+1* (``u ∈ [0,1)``)."""
        return self.ack_timeout * (self.backoff**attempt) * (1.0 + self.jitter * u)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def worst_case_span(self) -> float:
        """Upper bound on time from first send to giving up (no latencies)."""
        return sum(
            self.timeout_for(attempt, 1.0) for attempt in range(self.max_attempts)
        )


class TimerHandle(Protocol):
    """What ``call_later`` returns (a ``ScheduledEvent``, an ``asyncio.TimerHandle``)."""

    def cancel(self) -> None: ...


#: ``deliver(receiver, epoch, psr, manifest)``: the receiving epoch machine takes
#: one first copy and returns its disposition; ``None`` counts as delivered.
DeliverFn = Callable[[int, int, "PartialStateRecord", frozenset[int]], "str | None"]


@dataclass(eq=False, slots=True)
class Parcel:
    """One PSR in flight across a single hop."""

    sender: int
    receiver: int
    edge: EdgeClass
    #: The epoch: each hop carries exactly one parcel per epoch.
    uid: int
    psr: PartialStateRecord
    #: The survivor manifest travelling with the PSR.
    manifest: frozenset[int]
    #: Wire encoding from :meth:`ReliableTransport.send`, replayed by every attempt.
    frame: bytes = field(repr=False)
    #: The ledger's counters of the parcel's edge class, resolved once at send.
    counters: EdgeCounters = field(repr=False)
    attempts: int = 0
    acked: bool = False
    failed: bool = False
    timer: TimerHandle | None = field(default=None, repr=False)


class ReliableTransport:
    """Sender and receiver halves of the per-hop ARQ for every hop of a run.

    One transport serves a whole fleet: links and ``(sender, uid)`` keys
    never overlap between nodes, so the sender's id and the parcel uid
    route every ACK to its parcel.  It counts into ``channel.ledger`` —
    a parcel's attempts and ACKs into the counters it resolved at
    :meth:`send` — and encodes with ``channel.codec``.  *now* only stamps
    observer events, and runs only with an observer attached; no decision
    reads it.  The injector and the channel's halves are looked up on
    every use, never bound.
    """

    def __init__(
        self,
        injector: KeyedFaultInjector,
        policy: RetransmitPolicy,
        channel: Channel,
        *,
        now: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], TimerHandle],
        put: Callable[[Parcel, bytes, int, KeyedVerdict], None],
        deliver: DeliverFn,
        on_finished: Callable[[Parcel], None] | None = None,
        observer: TransportObserver | None = None,
    ) -> None:
        self.injector = injector
        self.policy = policy
        self.ledger = channel.ledger
        self._channel = channel
        self._now = now
        self._observer = observer
        self._encode = channel.codec.encode
        self._call_later = call_later
        self._put = put
        self._deliver = deliver
        self._on_finished = on_finished
        #: ``(sender, uid)`` → the parcel, until it stops.
        self._open: dict[tuple[int, int], Parcel] = {}
        #: ``(sender, uid)`` pairs already received (duplicate suppression).
        self._seen: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Sender half
    # ------------------------------------------------------------------

    def send(
        self,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        uid: int,
        psr: PartialStateRecord,
        manifest: frozenset[int],
    ) -> Parcel:
        """Hand one PSR and its manifest to the ARQ as parcel *uid* (its epoch)."""
        parcel = Parcel(
            sender, receiver, edge, uid, psr, manifest, self._encode(psr), self.ledger.edge(edge)
        )
        self._open[(sender, uid)] = parcel
        self._attempt(parcel)
        return parcel

    def ack(self, sender: int, edge: EdgeClass, uid: int) -> None:
        """One ACK is back at *sender*: the first stops its parcel, a later one is only counted."""
        parcel = self._open.get((sender, uid))
        if parcel is None:  # the sender already stopped waiting
            self.ledger.edge(edge).acks_received += 1
            return
        parcel.counters.acks_received += 1
        parcel.acked = True
        if parcel.timer is not None:
            parcel.timer.cancel()
        self._finish(parcel)

    def _attempt(self, parcel: Parcel) -> None:
        sender, receiver, edge, uid = parcel.sender, parcel.receiver, parcel.edge, parcel.uid
        frame = self._channel.emit(parcel.psr, edge, parcel.frame)
        index = parcel.attempts
        parcel.attempts = index + 1
        c = parcel.counters
        c.attempts += 1
        if index:
            c.retransmissions += 1
        observer = self._observer
        if observer is not None:
            emit_hop(observer, "attempt", sender, receiver, edge, uid, index, self._now())
        verdict = self.injector.data_verdict(sender, receiver, edge, uid, index)
        if frame is None:
            c.drops_channel += 1
            if observer is not None:
                emit_hop(
                    observer, "drop", sender, receiver, edge, uid, index, self._now(),
                    cause="channel",
                )
        elif verdict.lost:
            c.drops_injected += 1
            if observer is not None:
                emit_hop(
                    observer, "drop", sender, receiver, edge, uid, index, self._now(),
                    cause="link",
                )
        else:
            copies = verdict.copies
            c.frames_sent += copies
            c.dup_copies += copies - 1
            self._put(parcel, frame, index, verdict)
        timeout = self.policy.timeout_for(index, verdict.jitter)
        parcel.timer = self._call_later(timeout, lambda: self._expire(parcel))

    def _expire(self, parcel: Parcel) -> None:
        """The ACK timeout fired: retransmit, or give up with the budget spent.

        An ACK may have got in after the timer fired; the parcel then
        just stays stopped.
        """
        if parcel.acked:
            return
        if parcel.attempts < self.policy.max_attempts:
            self._attempt(parcel)
            return
        parcel.failed = True
        parcel.counters.gave_up += 1
        if self._observer is not None:
            emit_hop(
                self._observer, "give_up", parcel.sender, parcel.receiver, parcel.edge,
                parcel.uid, parcel.attempts - 1, self._now(),
            )
        self._finish(parcel)

    def _finish(self, parcel: Parcel) -> None:
        del self._open[(parcel.sender, parcel.uid)]
        parcel.timer = None  # the timer's callback refers back to the parcel
        if self._on_finished is not None:
            self._on_finished(parcel)

    # ------------------------------------------------------------------
    # Receiver half
    # ------------------------------------------------------------------

    def receive(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int,
        frame: bytes, manifest: frozenset[int], verdict: KeyedVerdict,
    ) -> bool:
        """Account one copy of *frame* landing at *receiver*; True when its ACK must go back.

        The first copy of each ``(sender, uid)`` only goes through the
        channel's ``accept``, with its *manifest*: ``deliver`` classifies
        the message as :data:`DELIVERED`, :data:`LATE` or
        :data:`DECODE_FAILURE`, and ``None`` (the channel rejected it) is
        a decode failure.  Every copy — duplicates and rejected ones
        included, the *transport* delivered them — is ACKed unless the
        attempt's *verdict*, carried with the copy, has the schedule
        swallow the ACK on the way back.
        """
        c = self.ledger.edge(edge)
        c.frames_received += 1
        key = (sender, uid)
        if key in self._seen:
            c.duplicates_suppressed += 1
            kind = "duplicate"
        else:
            self._seen.add(key)
            message = self._channel.accept(frame, sender, receiver, edge, manifest)
            if message is None:
                kind = DECODE_FAILURE
            else:
                kind = self._deliver(receiver, uid, message.psr, message.manifest) or DELIVERED
            if kind == DELIVERED:
                c.delivered += 1
            elif kind == LATE:
                c.late_frames += 1
            elif kind == DECODE_FAILURE:
                c.decode_failures += 1
            else:
                raise SimulationError(f"unknown first-copy disposition {kind!r}")
        observer = self._observer
        if observer is not None:
            emit_hop(observer, kind, sender, receiver, edge, uid, attempt, self._now())
        if verdict.ack_lost:
            c.acks_dropped += 1
            if observer is not None:
                emit_hop(observer, "ack_lost", sender, receiver, edge, uid, attempt, self._now())
            return False
        c.acks_sent += 1
        return True


def scheduled_transport(
    scheduler: EventScheduler, injector: KeyedFaultInjector, channel: Channel,
    policy: RetransmitPolicy, *, deliver: DeliverFn,
    observer: TransportObserver | None = None,
) -> ReliableTransport:
    """The event runtime's transport: on *scheduler*, every copy and ACK
    an event after its keyed latency, read from the verdict the attempt
    carries to them.

    The copies of one attempt share one arrival callback, which hands
    the frame the attempt emitted to the receiver half.
    """
    call_later = scheduler.call_later

    def put(parcel: Parcel, frame: bytes, attempt: int, verdict: KeyedVerdict) -> None:
        def arrive() -> None:
            sender, edge, uid = parcel.sender, parcel.edge, parcel.uid
            if receive(
                sender, parcel.receiver, edge, uid, attempt, frame, parcel.manifest, verdict
            ):
                call_later(verdict.ack_latency, lambda: ack(sender, edge, uid))

        latencies = verdict.latencies
        call_later(latencies[0], arrive)
        if verdict.copies == 2:
            call_later(latencies[1], arrive)

    transport = ReliableTransport(
        injector, policy, channel, now=lambda: scheduler.now, call_later=call_later,
        put=put, deliver=deliver, observer=observer,
    )
    receive, ack = transport.receive, transport.ack
    return transport


def parcel_fate(
    injector: KeyedFaultInjector,
    policy: RetransmitPolicy,
    sender: int,
    receiver: int,
    edge: EdgeClass,
    uid: int,
) -> tuple[bool, int]:
    """Replay one parcel's ARQ against the keyed schedule, one verdict
    (data fate and ACK fate) per attempt.

    Returns ``(delivered, attempts)``: whether some attempt's copy got
    through, and the attempts the sender makes when every surviving ACK
    beats its timeout — on the cluster's scheduled-time clock and on the
    event runtime's default timings, always.
    """
    delivered = False
    for attempt in range(policy.max_attempts):
        verdict = injector.data_verdict(sender, receiver, edge, uid, attempt)
        if not verdict.lost:
            delivered = True
            if not verdict.ack_lost:
                return True, attempt + 1
    return delivered, policy.max_attempts
