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
* every outcome is counted into the run's per-edge-class
  :class:`~repro.network.ledger.HopLedger`, whose
  :meth:`~repro.network.ledger.HopLedger.check_conservation` proves no
  frame was dropped silently, and reported as a ``(kind, attrs)``
  event to the optional :data:`TransportObserver` through
  :func:`emit_hop`, the emit helper every substrate's hop path shares.

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
from dataclasses import dataclass

from repro.errors import ParameterError, SimulationError
from repro.network.ledger import EdgeClass, HopLedger
from repro.runtime.faults import KeyedFaultInjector
from repro.utils.rng import DeterministicRandom

__all__ = [
    "DELIVERED",
    "LATE",
    "DECODE_FAILURE",
    "RetransmitPolicy",
    "Parcel",
    "HopEngine",
    "TransportObserver",
    "emit_hop",
]

#: Observability hook: ``(event kind, attributes)`` per hop event.
#: Kinds: ``attempt``, ``drop``, ``deliver``, ``duplicate``, ``late``,
#: ``decode_failure``, ``ack_lost``, ``give_up``.  Kept as a plain
#: callable so the engine stays below :mod:`repro.obs` in the layering
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
    attempts: int = 0
    acked: bool = False
    failed: bool = False


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
        if self.observer is not None:
            emit_hop(
                self.observer, kind, sender, receiver, edge, uid, attempt, self.now(), **extra
            )
