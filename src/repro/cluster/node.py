"""Tree nodes as asyncio TCP servers speaking the wire format.

Every node of the aggregation tree — source, aggregator, querier — runs
inside one process as an asyncio task bound to its own real TCP server
socket on ``127.0.0.1`` (port 0, kernel-assigned).  Child nodes open a
client connection to their parent's server and keep it for the whole
run; data envelopes flow up that connection and transport ACKs flow
back down it, so the hop looks exactly like the paper's one-hop radio
link with a MAC-layer ARQ on top:

* each application send becomes one *parcel* (uid = epoch: a node sends
  exactly one PSR per epoch per hop) run through the hop engine of
  :mod:`repro.runtime.hop` — the same ARQ, dedup, ACK discipline and
  keyed fault oracle the event runtime drives; this module only turns
  the engine's answers into socket writes and ``asyncio`` waits;
* every hop goes through the run's one
  :class:`~repro.network.channel.Channel`, split at the socket: the
  sender's ``emit`` runs before each write (a frame it drops is never
  written: ``drops_channel``), the receiver's ``accept`` on each first
  copy (a copy it rejects is a ``decode_failures`` arrival, ACKed);
* the inner protocol frame is encoded **once** per parcel and carried
  byte-identical across retransmissions unless a frame interceptor
  rewrites it; only the envelope's attempt counter changes (see
  :mod:`repro.cluster.envelope`);
* a sender giving up does **not** retract a delivered copy: downstream
  correctness derives from the manifests receivers really merged.

Above the hop every node is the same :class:`ClusterNode`: the epoch
machine lives in one :class:`~repro.runtime.epoch.EpochDriver` owned by
the orchestrator.  A node hands each accepted first copy to its
*deliver* callable (the driver's :meth:`~repro.runtime.epoch.EpochDriver.deliver`),
routed by the envelope's epoch, never by the attacker-readable frame
header; the driver, in turn, sends through :meth:`ClusterNode.send_psr`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Mapping

from repro.errors import SimulationError, WireDecodeError
from repro.network.channel import Channel
from repro.network.ledger import EdgeClass
from repro.network.messages import DataMessage
from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.framing import FrameReader, FrameWriter
from repro.protocols.base import PartialStateRecord
from repro.runtime.faults import KeyedFaultInjector
from repro.runtime.hop import DECODE_FAILURE, HopEngine, Parcel, RetransmitPolicy, TransportObserver

__all__ = ["ClusterNode"]

_HOST = "127.0.0.1"

#: ``deliver(receiver, epoch, psr, manifest) -> disposition``: the
#: receiving node's epoch machine takes one decoded first copy.
DeliverFn = Callable[[int, int, PartialStateRecord, frozenset[int]], str]


class ClusterNode:
    """One tree node: a TCP server plus an optional uplink to its parent.

    *channel* is the run's channel, shared by every node: its ledger is
    the run's one hop ledger.  *uplink* is the tree's table
    ``{node: (receiver, edge class)}``
    (:attr:`~repro.runtime.epoch.EpochPlanner.uplink`): it names this
    node's own hop (none on the querier) and which senders are its
    children.  *now* is the running loop's clock, stamped on observer
    events.
    """

    def __init__(
        self,
        node_id: int,
        *,
        channel: Channel,
        uplink: Mapping[int, tuple[int, EdgeClass]],
        deliver: DeliverFn,
        injector: KeyedFaultInjector,
        policy: RetransmitPolicy,
        seed: int,
        now: Callable[[], float],
        observer: TransportObserver | None = None,
    ) -> None:
        self.node_id = node_id
        self.channel = channel
        self._uplink = uplink
        self._deliver_psr = deliver
        #: This node's half of every hop it takes part in: sender on its
        #: uplink, receiver for its children.  The observer gets the
        #: same ``(kind, attrs)`` events as on the runtime, so one
        #: :class:`~repro.obs.trace.TraceRecorder` observes both substrates.
        self.engine = HopEngine(
            injector, policy, channel.ledger, seed=seed, now=now, observer=observer
        )
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        self._uplink_writer: FrameWriter | None = None
        self._uplink_stream: asyncio.StreamWriter | None = None
        self._ack_task: asyncio.Task | None = None
        #: parcel uid → the parcel and the event set when its ACK arrives.
        self._pending: dict[int, tuple[Parcel, asyncio.Event]] = {}
        #: Frames that failed envelope parsing on an inbound connection —
        #: impossible from a well-behaved peer; conservation catches the
        #: imbalance and this counter names the culprit node.
        self.stream_errors = 0
        self._inbound: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Bind the node's server socket; returns the kernel-assigned port."""
        if self._server is not None:
            raise SimulationError(f"node {self.node_id} already started")
        self._server = await asyncio.start_server(self._on_connection, host=_HOST, port=0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def connect_uplink(self, port: int) -> None:
        """Open the persistent client connection to the parent's server."""
        if self._uplink_writer is not None:
            raise SimulationError(f"node {self.node_id} already has an uplink")
        reader, writer = await asyncio.open_connection(_HOST, port)
        self._uplink_stream = writer
        self._uplink_writer = FrameWriter(writer)
        self._ack_task = asyncio.ensure_future(self._ack_loop(FrameReader(reader)))

    async def close_uplink(self) -> None:
        """Half-close the uplink (FIN), drain remaining ACKs, then close.

        The half-close ordering is what keeps the ACK conservation law
        exact at shutdown: the parent sees our EOF only after all data,
        replies to everything, then closes its side — and our ACK loop
        reads every byte the parent wrote before observing EOF.
        """
        if self._uplink_stream is None:
            return
        if self._uplink_stream.can_write_eof():
            self._uplink_stream.write_eof()
        if self._ack_task is not None:
            await self._ack_task
        self._uplink_stream.close()
        await self._uplink_stream.wait_closed()
        self._uplink_stream = None
        self._uplink_writer = None

    async def stop(self) -> None:
        """Stop accepting, then wait for inbound handlers to drain."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._inbound):
            await task

    # ------------------------------------------------------------------
    # Inbound: data envelopes from children
    # ------------------------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._inbound.add(task)
        task.add_done_callback(self._inbound.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader(reader)
        acks = FrameWriter(writer)
        try:
            while True:
                try:
                    frame = await frames.read_frame()
                except WireDecodeError:
                    self.stream_errors += 1
                    break
                if frame is None:
                    break
                try:
                    envelope = decode_envelope(frame)
                except WireDecodeError:
                    self.stream_errors += 1
                    break
                if not isinstance(envelope, DataEnvelope):
                    # Children never send ACKs upstream; a stray one means
                    # the peer is broken — drop the connection.
                    self.stream_errors += 1
                    break
                await self._handle_data(envelope, acks)
        finally:
            writer.close()
            await writer.wait_closed()

    def _classify(self, sender: int) -> EdgeClass:
        hop = self._uplink.get(sender)
        if hop is None or hop[0] != self.node_id:
            raise SimulationError(
                f"node {self.node_id} received a frame from {sender}, which is "
                "not one of its children in the aggregation tree"
            )
        return hop[1]

    async def _handle_data(self, envelope: DataEnvelope, acks: FrameWriter) -> None:
        edge = self._classify(envelope.sender)
        if self.engine.receive(
            envelope.sender,
            self.node_id,
            edge,
            envelope.uid,
            envelope.attempt,
            lambda: self._deliver(envelope, edge),
        ):
            ack = encode_ack(epoch=envelope.epoch, uid=envelope.uid, attempt=envelope.attempt)
            await acks.write_frame(ack)
            self.engine.ledger.edge(edge).ack_bytes += len(ack)

    def _deliver(self, envelope: DataEnvelope, edge: EdgeClass) -> str:
        """Accept a first copy off the channel and hand it to the epoch machine."""
        message = self.channel.accept(
            envelope.inner, envelope.sender, self.node_id, edge, envelope.manifest
        )
        if message is None:
            return DECODE_FAILURE
        # Routed by the envelope's epoch: the frame header's is the attacker's.
        return self._deliver_psr(self.node_id, envelope.epoch, message.psr, message.manifest)

    # ------------------------------------------------------------------
    # Outbound: the per-hop ARQ over the uplink
    # ------------------------------------------------------------------

    async def _ack_loop(self, frames: FrameReader) -> None:
        _, edge = self._uplink[self.node_id]
        while True:
            try:
                frame = await frames.read_frame()
            except WireDecodeError:
                self.stream_errors += 1
                return
            if frame is None:
                return
            try:
                envelope = decode_envelope(frame)
            except WireDecodeError:
                self.stream_errors += 1
                return
            if not isinstance(envelope, AckEnvelope):
                self.stream_errors += 1
                return
            pending = self._pending.get(envelope.uid)
            parcel = pending[0] if pending is not None else None
            if self.engine.ack_arrived(edge, parcel) and pending is not None:
                pending[1].set()

    async def send_psr(self, message: DataMessage) -> bool:
        """Run one parcel through the ARQ; True once ACKed, False on give-up.

        The inner frame is encoded once; every attempt then goes through
        the channel's sender half, which counts it and may rewrite or
        drop the frame, exactly as on the runtime.  The delivered-or-not
        outcome is the keyed fault schedule's, not the event loop's: an
        attempt the schedule spares is physically written (TCP then
        delivers it), an attempt it or the channel swallows is never
        written.  Slow ACKs can only add extra attempts whose copies the
        receiver suppresses — see :func:`repro.cluster.faults.parcel_fate`.
        """
        if self._uplink_writer is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        receiver, edge = self._uplink[self.node_id]
        epoch = message.epoch
        inner = self.channel.codec.encode(message.psr)
        counters = self.engine.ledger.edge(edge)
        parcel = Parcel(self.node_id, receiver, edge, epoch)
        event = asyncio.Event()
        self._pending[epoch] = (parcel, event)
        try:
            while True:
                frame = self.channel.emit(message, edge, inner)
                copies, timeout = self.engine.attempt(parcel, swallowed=frame is None)
                if frame is not None and copies:
                    envelope = encode_data(
                        epoch=epoch,
                        sender=self.node_id,
                        uid=epoch,
                        attempt=parcel.attempts - 1,
                        manifest=message.manifest,
                        inner=frame,
                    )
                    for _ in range(copies):
                        await self._uplink_writer.write_frame(envelope)
                    counters.envelope_bytes += copies * len(envelope)
                try:
                    await asyncio.wait_for(event.wait(), timeout)
                    return True
                except TimeoutError:
                    if not self.engine.expire(parcel):
                        return parcel.acked
        finally:
            del self._pending[epoch]
