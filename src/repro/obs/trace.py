"""The unified structured trace: one event schema for every substrate.

:class:`ObsEvent` describes one hop on any substrate: the hop metadata
(epoch, edge, sender, receiver) plus *substrate* name, *run id*,
*attempt index*, parcel *uid*, and a *kind* that classifies the
disposition of the hop:

======================  =====================================================
kind                    meaning
======================  =====================================================
``attempt``             one physical attempt was put on the link
``drop``                the attempt was swallowed (injected loss or channel)
``deliver``             first copy of a parcel handed to the application
``duplicate``           a further copy, suppressed by receiver-side dedup
``late``                a copy arrived after its receiver's merge deadline
``decode_failure``      a frame arrived but no longer parsed
``ack_lost``            the transport ACK was swallowed on the way back
``give_up``             the sender exhausted its retry budget
======================  =====================================================

Every substrate emits these events through one ``(kind, attrs)``
observer (:data:`repro.runtime.transport.TransportObserver`, filled by
:func:`repro.runtime.transport.emit_hop`): the analytic simulator reports each
hop as one ``attempt`` followed by ``deliver`` or ``drop`` (``detail``
``channel``), the runtime and the cluster report their per-hop ARQ
(:class:`~repro.runtime.transport.ReliableTransport`).  A :class:`TraceRecorder` *is* such an observer — pass it as
``SimulationConfig.observer``, ``RuntimeConfig.observer`` or
``ClusterConfig.observer``.

Traces serialize to JSON-lines (one compact object per event) and are
diffable: :func:`trace_dispositions` reduces a trace to its
**seed-determined slice** — per-epoch sets of delivered / dropped /
late hops — which must be identical for the runtime and the cluster on
the same seed, plan, and tree (both run one per-hop ARQ over one keyed
fault oracle), and for a lossless run also for the analytic simulator.
The ACK-timing-dependent kinds (``give_up``, ``ack_lost``,
``duplicate``) are recorded but deliberately excluded from that slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

__all__ = [
    "EVENT_KINDS",
    "ObsEvent",
    "TraceRecorder",
    "trace_dispositions",
]

from repro.errors import ParameterError

EVENT_KINDS: frozenset[str] = frozenset(
    {
        "attempt",
        "drop",
        "deliver",
        "duplicate",
        "late",
        "decode_failure",
        "ack_lost",
        "give_up",
    }
)

#: Kinds whose per-epoch hop sets are pure functions of the seed (given
#: generous deadlines); the slice cross-substrate tests compare.
_DETERMINED_KINDS: tuple[str, ...] = ("deliver", "drop", "late", "decode_failure")


@dataclass(frozen=True)
class ObsEvent:
    """One observed event on one hop of one substrate."""

    sequence: int
    substrate: str
    run_id: str
    kind: str
    epoch: int
    edge: str
    sender: int
    receiver: int
    #: Logical (runtime), monotonic-clock (cluster) or ``None`` (analytic).
    time: float | None = None
    #: 0-based physical attempt index; ``None`` outside the ARQ path.
    attempt: int | None = None
    #: Parcel uid; both ARQ substrates use ``uid == epoch``.
    uid: int | None = None
    #: Free-form qualifier (e.g. drop cause ``link`` vs ``channel``).
    detail: str | None = None

    def to_json(self) -> str:
        payload: dict = {
            "seq": self.sequence,
            "sub": self.substrate,
            "run": self.run_id,
            "kind": self.kind,
            "epoch": self.epoch,
            "edge": self.edge,
            "from": self.sender,
            "to": self.receiver,
        }
        for name, value in (
            ("time", self.time),
            ("attempt", self.attempt),
            ("uid", self.uid),
            ("detail", self.detail),
        ):
            if value is not None:
                payload[name] = value
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ObsEvent":
        data = json.loads(line)
        return cls(
            sequence=data["seq"],
            substrate=data["sub"],
            run_id=data["run"],
            kind=data["kind"],
            epoch=data["epoch"],
            edge=data["edge"],
            sender=data["from"],
            receiver=data["to"],
            time=data.get("time"),
            attempt=data.get("attempt"),
            uid=data.get("uid"),
            detail=data.get("detail"),
        )


@dataclass
class TraceRecorder:
    """Collects :class:`ObsEvent` records for one run of one substrate.

    The recorder is the substrates' ``(kind, attrs)`` observer itself
    (:meth:`__call__`); analysis and the ``repro trace`` CLI read it.
    It assigns sequence numbers in call order — causal order on a
    single-threaded substrate.
    """

    substrate: str
    run_id: str = "run-0"
    events: list[ObsEvent] = field(default_factory=list)
    _sequence: int = 0

    def __call__(self, kind: str, attrs: dict) -> None:
        """Record one hop event from a substrate's observer stream."""
        self.record(
            kind,
            epoch=attrs["epoch"],
            edge=attrs["edge"],
            sender=attrs["sender"],
            receiver=attrs["receiver"],
            time=attrs.get("time"),
            attempt=attrs.get("attempt"),
            uid=attrs.get("uid"),
            detail=attrs.get("cause"),
        )

    def record(
        self,
        kind: str,
        *,
        epoch: int,
        edge: str,
        sender: int,
        receiver: int,
        time: float | None = None,
        attempt: int | None = None,
        uid: int | None = None,
        detail: str | None = None,
    ) -> ObsEvent:
        if kind not in EVENT_KINDS:
            raise ParameterError(
                f"unknown trace event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        event = ObsEvent(
            sequence=self._sequence,
            substrate=self.substrate,
            run_id=self.run_id,
            kind=kind,
            epoch=epoch,
            edge=edge,
            sender=sender,
            receiver=receiver,
            time=time,
            attempt=attempt,
            uid=uid,
            detail=detail,
        )
        self.events.append(event)
        self._sequence += 1
        return event

    def reset(self) -> None:
        """Start a fresh trace (run-boundary scoping)."""
        self.events = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def epochs(self) -> list[int]:
        return sorted({e.epoch for e in self.events})

    def filter(
        self,
        *,
        epoch: int | None = None,
        node: int | None = None,
        edge: str | None = None,
        kinds: Iterable[str] | None = None,
    ) -> list[ObsEvent]:
        wanted = None if kinds is None else frozenset(kinds)
        out = []
        for event in self.events:
            if epoch is not None and event.epoch != epoch:
                continue
            if node is not None and node not in (event.sender, event.receiver):
                continue
            if edge is not None and event.edge != edge:
                continue
            if wanted is not None and event.kind not in wanted:
                continue
            out.append(event)
        return out

    def dispositions(self) -> dict[int, dict[str, list[tuple[int, int]]]]:
        return trace_dispositions(self.events)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def write_jsonl(self, stream: IO[str]) -> int:
        for event in self.events:
            stream.write(event.to_json() + "\n")
        return len(self.events)

    @classmethod
    def read_jsonl(cls, stream: IO[str]) -> "TraceRecorder":
        events = [ObsEvent.from_json(line) for line in stream if line.strip()]
        substrate = events[0].substrate if events else "unknown"
        run_id = events[0].run_id if events else "run-0"
        recorder = cls(substrate=substrate, run_id=run_id)
        recorder.events = events
        recorder._sequence = len(events)
        return recorder


def trace_dispositions(
    events: Iterable[ObsEvent],
) -> dict[int, dict[str, list[tuple[int, int]]]]:
    """Reduce a trace to its seed-determined per-epoch hop dispositions.

    For every epoch: ``delivered`` is the set of ``(sender, receiver)``
    hops whose parcel reached the application, ``dropped`` the hops
    that were attempted but never delivered (every copy swallowed),
    ``late`` the hops with a post-deadline arrival, and
    ``decode_failures`` the hops that received unparseable frames.
    Hop sets are sorted lists of pairs so two substrates' dispositions
    compare (and JSON-serialize) directly.
    """
    delivered: dict[int, set[tuple[int, int]]] = {}
    attempted: dict[int, set[tuple[int, int]]] = {}
    late: dict[int, set[tuple[int, int]]] = {}
    decode_failures: dict[int, set[tuple[int, int]]] = {}
    for event in events:
        hop = (event.sender, event.receiver)
        if event.kind == "attempt":
            attempted.setdefault(event.epoch, set()).add(hop)
        elif event.kind == "deliver":
            delivered.setdefault(event.epoch, set()).add(hop)
            attempted.setdefault(event.epoch, set()).add(hop)
        elif event.kind == "late":
            late.setdefault(event.epoch, set()).add(hop)
        elif event.kind == "decode_failure":
            decode_failures.setdefault(event.epoch, set()).add(hop)
    out: dict[int, dict[str, list[tuple[int, int]]]] = {}
    epochs = set(attempted) | set(delivered) | set(late) | set(decode_failures)
    for epoch in sorted(epochs):
        got = delivered.get(epoch, set())
        tried = attempted.get(epoch, set())
        out[epoch] = {
            "delivered": sorted(got),
            "dropped": sorted(tried - got),
            "late": sorted(late.get(epoch, set())),
            "decode_failures": sorted(decode_failures.get(epoch, set())),
        }
    return out
