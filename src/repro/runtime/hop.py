"""The per-hop ARQ as one clock-free engine both substrates drive.

Real WSN MAC layers retransmit unacknowledged frames a bounded number
of times; SIES rides on that and recovers whatever still gets lost via
the reporting-subset mechanism (paper Section IV-B).  :class:`HopEngine`
makes every decision of that hop and nothing else — it never reads a
clock, touches a socket, or schedules a callback:

* **sender half** — :meth:`HopEngine.attempt` asks the keyed fault
  oracle for the verdict of the parcel's next attempt and answers how
  many copies to put on the link (0, 1 or 2) plus the ACK timeout
  (exponential backoff, jitter from one sequential stream per link);
  :meth:`HopEngine.expire` answers "retransmit" or "give up" when that
  timeout fires;
* **receiver half** — :meth:`HopEngine.receive` suppresses duplicates
  by ``(sender, uid)``, has the driver classify each first copy
  (delivered, late, or decode failure), and decides whether the ACK —
  sent for *every* received copy — survives the way back;
* every outcome is counted into one per-edge-class :class:`HopLedger`
  whose :meth:`~HopLedger.check_conservation` proves no frame was
  dropped silently, and reported as a ``(kind, attrs)`` event to the
  optional :data:`TransportObserver`.

The drivers own the time and the bytes: the event runtime
(:class:`~repro.runtime.transport.ReliableTransport`) turns copies and
timeouts into scheduler events, the TCP cluster
(:class:`~repro.cluster.node.ClusterNode`) into socket writes and
``asyncio`` waits.  A parcel's uid is its epoch on both substrates —
each hop carries one parcel per epoch.

A sender giving up does **not** retract a copy that actually arrived
(the ACK may be the lost half): correctness downstream derives from
what receivers really merged, never from sender-side beliefs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

from repro.errors import ParameterError, SimulationError
from repro.network.channel import EdgeClass
from repro.runtime.faults import KeyedFaultInjector
from repro.utils.rng import DeterministicRandom

__all__ = [
    "DELIVERED",
    "LATE",
    "DECODE_FAILURE",
    "RetransmitPolicy",
    "Parcel",
    "EdgeCounters",
    "HopLedger",
    "HopEngine",
    "TransportObserver",
]

#: Observability hook: ``(event kind, attributes)`` per hop event.
#: Kinds: ``attempt``, ``drop``, ``deliver``, ``duplicate``, ``late``,
#: ``decode_failure``, ``ack_lost``, ``give_up``.  Kept as a plain
#: callable so the engine stays below :mod:`repro.obs` in the layering
#: (the adapter lives up there).
TransportObserver = Callable[[str, dict], None]

#: Dispositions of a first copy, as the driver classifies it (these
#: are also the trace kinds the engine emits for it).
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


@dataclass(eq=False)
class Parcel:
    """One application-level send in flight across a single hop."""

    sender: int
    receiver: int
    edge: EdgeClass
    #: The epoch: each hop carries exactly one parcel per epoch.
    uid: int
    #: Source ids whose contributions the parcel's PSR carries.
    manifest: frozenset[int]
    attempts: int = 0
    acked: bool = False
    failed: bool = False


@dataclass
class EdgeCounters:
    """Frame accounting for one edge class of the tree."""

    #: ARQ send decisions (first attempts + retransmissions).
    attempts: int = 0
    #: Attempts beyond the first per parcel.
    retransmissions: int = 0
    #: Attempts the fault schedule swallowed (nothing reached the link).
    drops_injected: int = 0
    #: Attempts the channel swallowed before the schedule ran (runtime
    #: adversary drops and decode failures).
    drops_channel: int = 0
    #: Extra copies put on the link by duplication verdicts.
    dup_copies: int = 0
    #: Data copies put on the link / received at the far end.
    frames_sent: int = 0
    frames_received: int = 0
    #: First copy of a parcel, handed to the application.
    delivered: int = 0
    #: Copies of an already-received parcel (dropped after ACK).
    duplicates_suppressed: int = 0
    #: First copies that arrived after their receiver's deadline.
    late_frames: int = 0
    #: First copies whose inner protocol frame failed to decode.
    decode_failures: int = 0
    #: Parcels whose sender exhausted its retry budget.
    gave_up: int = 0
    #: ACKs sent / swallowed by the schedule / observed by the sender.
    acks_sent: int = 0
    acks_dropped: int = 0
    acks_received: int = 0
    #: Measured inner protocol frame bytes, once per parcel (cluster;
    #: cross-checked against ``codec.framed_size()`` at the send site).
    psr_bytes: int = 0
    #: Bytes of every data envelope / ACK frame written (cluster).
    envelope_bytes: int = 0
    ack_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_COUNTER_NAMES = frozenset(f.name for f in fields(EdgeCounters))


class HopLedger:
    """Per-edge-class :class:`EdgeCounters` plus the conservation laws.

    Reading a counter name off the ledger (``ledger.attempts``) gives
    that counter's per-edge mapping ``{EdgeClass: count}``.
    """

    def __init__(self) -> None:
        self.by_class: dict[EdgeClass, EdgeCounters] = {}

    def edge(self, edge_class: EdgeClass) -> EdgeCounters:
        counters = self.by_class.get(edge_class)
        if counters is None:
            counters = EdgeCounters()
            self.by_class[edge_class] = counters
        return counters

    def total(self, field_name: str) -> int:
        return sum(getattr(c, field_name) for c in self.by_class.values())

    def __getattr__(self, name: str) -> dict[EdgeClass, int]:
        if name in _COUNTER_NAMES:
            return {edge: getattr(c, name) for edge, c in self.by_class.items()}
        raise AttributeError(name)

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            edge.value: counters.as_dict()
            for edge, counters in sorted(self.by_class.items(), key=lambda item: item[0].value)
        }

    def check_conservation(self) -> None:
        """Raise :class:`~repro.errors.SimulationError` on any silent drop.

        Called once per run after every copy and ACK has landed; every
        law must balance on every edge class independently:

        * each attempt puts 1 or 2 copies on the link or is swallowed
          by the schedule or the channel;
        * every copy put on the link arrives;
        * every arrival is classified exactly once;
        * every arrival is ACKed, unless the schedule drops the ACK;
        * every ACK sent is observed by the sender.
        """
        for edge, c in sorted(self.by_class.items(), key=lambda item: item[0].value):
            laws = [
                (
                    "attempts == drops_injected + drops_channel + frames_sent - dup_copies",
                    c.attempts,
                    c.drops_injected + c.drops_channel + c.frames_sent - c.dup_copies,
                ),
                ("frames_sent == frames_received", c.frames_sent, c.frames_received),
                (
                    "frames_received == delivered + duplicates_suppressed "
                    "+ late_frames + decode_failures",
                    c.frames_received,
                    c.delivered + c.duplicates_suppressed + c.late_frames + c.decode_failures,
                ),
                (
                    "frames_received == acks_sent + acks_dropped",
                    c.frames_received,
                    c.acks_sent + c.acks_dropped,
                ),
                ("acks_sent == acks_received", c.acks_sent, c.acks_received),
            ]
            for law, lhs, rhs in laws:
                if lhs != rhs:
                    raise SimulationError(
                        f"silent drop on {edge.value}: {law} violated ({lhs} != {rhs}); "
                        f"full counters: {c.as_dict()}"
                    )


class HopEngine:
    """Sender and receiver halves of the per-hop ARQ, clock-free.

    *now* only stamps observer events (the driver's clock); no decision
    reads it.  The injector is looked up on every use, never bound.
    """

    def __init__(
        self,
        injector: KeyedFaultInjector,
        policy: RetransmitPolicy,
        ledger: HopLedger,
        *,
        seed: int,
        now: Callable[[], float],
        observer: TransportObserver | None = None,
    ) -> None:
        self.injector = injector
        self.policy = policy
        self.ledger = ledger
        self.seed = seed
        self.now = now
        self.observer = observer
        #: One sequential backoff-jitter stream per link, built on the
        #: link's first attempt.  Jitter only shapes timing: delivered
        #: sets stay a pure function of the keyed schedule.
        self._backoff: dict[tuple[int, int], DeterministicRandom] = {}
        #: ``(sender, uid)`` pairs already received (duplicate suppression).
        self._seen: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Sender half
    # ------------------------------------------------------------------

    def attempt(self, parcel: Parcel, *, swallowed: bool = False) -> tuple[int, float]:
        """Start the parcel's next attempt.

        Returns ``(copies, timeout)``: how many copies to put on the
        link and how long to wait for an ACK before calling
        :meth:`expire`.  *swallowed* reports that the channel itself ate
        the attempt before the link (the schedule is then not consulted).
        """
        index = parcel.attempts
        parcel.attempts += 1
        c = self.ledger.edge(parcel.edge)
        c.attempts += 1
        if index:
            c.retransmissions += 1
        self._emit("attempt", parcel.sender, parcel.receiver, parcel.edge, parcel.uid, index)
        copies = 0
        if swallowed:
            c.drops_channel += 1
            self._emit(
                "drop", parcel.sender, parcel.receiver, parcel.edge, parcel.uid, index,
                cause="channel",
            )
        else:
            verdict = self.injector.data_verdict(
                parcel.sender, parcel.receiver, parcel.edge, parcel.uid, index
            )
            if verdict.lost:
                c.drops_injected += 1
                self._emit(
                    "drop", parcel.sender, parcel.receiver, parcel.edge, parcel.uid, index,
                    cause="link",
                )
            else:
                copies = verdict.copies
                c.frames_sent += copies
                c.dup_copies += copies - 1
        return copies, self.policy.timeout_for(index, self._jitter(parcel))

    def expire(self, parcel: Parcel) -> bool:
        """The ACK timeout fired: True to retransmit, False to stop.

        Stopping an unacknowledged parcel with its budget spent gives it
        up (counted and reported); an acknowledged one just stops.
        """
        if parcel.acked:
            return False
        if parcel.attempts < self.policy.max_attempts:
            return True
        parcel.failed = True
        self.ledger.edge(parcel.edge).gave_up += 1
        self._emit(
            "give_up", parcel.sender, parcel.receiver, parcel.edge, parcel.uid,
            parcel.attempts - 1,
        )
        return False

    def ack_arrived(self, edge: EdgeClass, parcel: Parcel | None) -> bool:
        """Count one ACK back at the sender; True if it is *parcel*'s first.

        *parcel* is ``None`` when the sender already stopped waiting.
        """
        self.ledger.edge(edge).acks_received += 1
        if parcel is None or parcel.acked:
            return False
        parcel.acked = True
        return True

    def _jitter(self, parcel: Parcel) -> float:
        link = (parcel.sender, parcel.receiver)
        stream = self._backoff.get(link)
        if stream is None:
            stream = DeterministicRandom(self.seed, "backoff", f"{link[0]}->{link[1]}")
            self._backoff[link] = stream
        return stream.random()

    # ------------------------------------------------------------------
    # Receiver half
    # ------------------------------------------------------------------

    def receive(
        self,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        uid: int,
        attempt: int,
        classify: Callable[[], str],
    ) -> bool:
        """Account one arriving copy; True when its ACK must be sent.

        *classify* runs for the first copy of each ``(sender, uid)``
        only and returns :data:`DELIVERED`, :data:`LATE` or
        :data:`DECODE_FAILURE`.  Every copy — duplicates and undecodable
        ones included, the *transport* delivered them — is ACKed unless
        the schedule swallows the ACK on the way back.
        """
        c = self.ledger.edge(edge)
        c.frames_received += 1
        key = (sender, uid)
        if key in self._seen:
            c.duplicates_suppressed += 1
            kind = "duplicate"
        else:
            self._seen.add(key)
            kind = classify()
            if kind == DELIVERED:
                c.delivered += 1
            elif kind == LATE:
                c.late_frames += 1
            elif kind == DECODE_FAILURE:
                c.decode_failures += 1
            else:
                raise SimulationError(f"unknown first-copy disposition {kind!r}")
        self._emit(kind, sender, receiver, edge, uid, attempt)
        if self.injector.ack_verdict(sender, receiver, edge, uid, attempt):
            c.acks_dropped += 1
            self._emit("ack_lost", sender, receiver, edge, uid, attempt)
            return False
        c.acks_sent += 1
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _emit(
        self,
        kind: str,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        uid: int,
        attempt: int,
        **extra: object,
    ) -> None:
        if self.observer is None:
            return
        attrs: dict = {
            "time": self.now(),
            "epoch": uid,
            "uid": uid,
            "attempt": attempt,
            "edge": edge.value,
            "sender": sender,
            "receiver": receiver,
        }
        attrs.update(extra)
        self.observer(kind, attrs)
