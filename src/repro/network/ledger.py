"""One traffic ledger per run, on every substrate.

The paper reports communication cost per edge class (S-A, A-A, A-Q;
Table V).  :class:`HopLedger` keeps one :class:`EdgeCounters` per class,
and every substrate fills exactly one ledger per run:

* the :class:`~repro.network.channel.Channel` counts messages, analytic
  payload bytes and measured frame bytes in its sender half and its own
  decode discards in its receiver half — the analytic simulator's whole
  ledger;
* the per-hop ARQ (:class:`~repro.runtime.transport.ReliableTransport`) adds the
  attempt, copy and ACK counters on the event runtime and on the TCP
  cluster, into the same ledger as their channel.

Every traffic counter counts per transmission **attempt** — the radio
cost the paper's analysis charges, retransmissions included — so on
every substrate the trace and the ledger agree: per edge class, the
number of ``attempt`` events an observer sees equals ``messages``.
Sitting below the channel, this module imports nothing from the
substrates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

from repro.errors import SimulationError

__all__ = ["EdgeClass", "EdgeCounters", "HopLedger"]


class EdgeClass(enum.Enum):
    """The three edge classes whose traffic the paper reports."""

    SOURCE_TO_AGGREGATOR = "S-A"
    AGGREGATOR_TO_AGGREGATOR = "A-A"
    AGGREGATOR_TO_QUERIER = "A-Q"


@dataclass
class EdgeCounters:
    """Traffic and frame accounting for one edge class of the tree."""

    #: Transmissions, one per attempt (retransmissions included).
    messages: int = 0
    #: Analytic payload bytes (``psr.wire_size()``) per attempt — the
    #: quantity of the paper's Table V.
    payload_bytes: int = 0
    #: Measured frame bytes (``len(frame)``) per attempt, each checked
    #: against ``PSRCodec.framed_size``.
    frame_bytes: int = 0
    #: Frames the channel's receiver half discarded because they no
    #: longer parsed (also counted as ``drops_channel`` on the runtime,
    #: whose channel decodes at the sender, and as ``decode_failures`` on
    #: the cluster, whose receiver decodes the copy it got).  On the
    #: analytic simulator, which keeps no ARQ counters, it also counts
    #: the copies hold-and-wait refused for a forged header epoch (the
    #: ARQ substrates count those as ``decode_failures``).
    channel_decode_failures: int = 0
    #: ARQ send decisions (first attempts + retransmissions).
    attempts: int = 0
    #: Attempts beyond the first per parcel.
    retransmissions: int = 0
    #: Attempts the fault schedule swallowed (nothing reached the link).
    drops_injected: int = 0
    #: Attempts the channel swallowed before the schedule ran: frame
    #: interceptor drops on every ARQ substrate, plus PSR interceptor
    #: drops and decode failures on the runtime.
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
    #: First copies the channel's receiver half rejected (cluster): the
    #: frame no longer parsed, or a PSR interceptor dropped the message.
    decode_failures: int = 0
    #: Parcels whose sender exhausted its retry budget.
    gave_up: int = 0
    #: ACKs sent / swallowed by the schedule / observed by the sender.
    acks_sent: int = 0
    acks_dropped: int = 0
    acks_received: int = 0
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

    def per_message(self, field_name: str, edge_class: EdgeClass) -> float:
        """Mean of a byte counter per message on *edge_class* (0 if none)."""
        counters = self.by_class.get(edge_class)
        if counters is None or not counters.messages:
            return 0.0
        return getattr(counters, field_name) / counters.messages

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

        Called once per run, as the run's
        :class:`~repro.runtime.metrics.RunMetrics` is built after every
        copy and ACK has landed (vacuous on the analytic simulator, which
        counts no ARQ); every law must balance on every edge class
        independently:

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
