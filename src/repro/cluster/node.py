"""Tree nodes as asyncio TCP servers speaking the wire format.

Every node of the aggregation tree — source, aggregator, querier — runs
inside one process as an asyncio task bound to its own real TCP server
socket on ``127.0.0.1`` (port 0, kernel-assigned).  Child nodes open a
client connection to their parent's server and keep it for the whole
run; data envelopes flow up that connection and transport ACKs flow
back down it, so the hop looks exactly like the paper's one-hop radio
link with a MAC-layer ARQ on top:

* each application send becomes one *parcel* (uid = epoch: a node sends
  exactly one PSR per epoch per hop) on the run's one ARQ driver,
  :class:`~repro.runtime.transport.ReliableTransport` — the same ARQ,
  dedup, ACK discipline and keyed fault oracle the event runtime
  drives.  A node is the driver's socket end: :meth:`ClusterNode.put`
  writes an attempt's envelope copies on the uplink, the inbound
  handler reports each arriving copy to the driver and writes the ACK
  it answers, and the ACK loop hands every ACK back to the driver;
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
the orchestrator, which the ARQ driver hands each accepted first copy,
routed by the envelope's uid, never by the attacker-readable frame
header.
"""

from __future__ import annotations

import asyncio
from collections.abc import AsyncIterator, Mapping

from repro.errors import SimulationError, WireDecodeError
from repro.network.channel import Channel
from repro.network.ledger import EdgeClass
from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.framing import FrameReader, FrameWriter
from repro.runtime.transport import ReliableTransport, RuntimeParcel

__all__ = ["ClusterNode"]

_HOST = "127.0.0.1"


class ClusterNode:
    """One tree node: a TCP server plus an optional uplink to its parent.

    *channel* is the run's channel and *transport* the run's ARQ driver,
    both shared by every node: the channel's ledger is the run's one hop
    ledger.  *uplink* is the tree's table ``{node: (receiver, edge class)}``
    (:attr:`~repro.runtime.epoch.EpochPlanner.uplink`): it names this
    node's own hop (none on the querier) and which senders are its
    children.
    """

    def __init__(
        self,
        node_id: int,
        *,
        channel: Channel,
        uplink: Mapping[int, tuple[int, EdgeClass]],
        transport: ReliableTransport,
    ) -> None:
        self.node_id = node_id
        self.channel = channel
        self._uplink = uplink
        self.transport = transport
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        self._uplink_writer: FrameWriter | None = None
        self._uplink_stream: asyncio.StreamWriter | None = None
        self._ack_task: asyncio.Task | None = None
        #: Frames that failed envelope parsing, or came the wrong way —
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

    async def _envelopes(self, frames: FrameReader, kind: type) -> AsyncIterator:
        """Envelopes of *kind* off one connection, until EOF.

        A frame that does not parse, or an envelope going the wrong way
        (children never send ACKs upstream, parents never send data
        down), means the peer is broken: a stream error, and the
        connection is dropped.
        """
        while True:
            try:
                frame = await frames.read_frame()
                if frame is None:
                    return
                envelope = decode_envelope(frame)
            except WireDecodeError:
                self.stream_errors += 1
                return
            if not isinstance(envelope, kind):
                self.stream_errors += 1
                return
            yield envelope

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        acks = FrameWriter(writer)
        try:
            async for envelope in self._envelopes(FrameReader(reader), DataEnvelope):
                self._handle_data(envelope, acks)
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

    def _handle_data(self, envelope: DataEnvelope, acks: FrameWriter) -> None:
        """Report one arriving copy to the driver; write the ACK it answers.

        A first copy is accepted off the channel here, at the receiver.
        """
        edge = self._classify(envelope.sender)
        if self.transport.receive(
            envelope.sender, self.node_id, edge, envelope.uid, envelope.attempt,
            lambda: self.channel.accept(
                envelope.inner, envelope.sender, self.node_id, edge, envelope.manifest
            ),
        ):
            ack = encode_ack(epoch=envelope.epoch, uid=envelope.uid, attempt=envelope.attempt)
            acks.write_frame(ack)
            self.channel.ledger.edge(edge).ack_bytes += len(ack)

    # ------------------------------------------------------------------
    # Outbound: the driver's link over the uplink
    # ------------------------------------------------------------------

    def put(self, parcel: RuntimeParcel, frame: bytes, attempt: int, copies: int) -> None:
        """Write *copies* envelopes of one attempt's *frame* on the uplink.

        The keyed schedule chose *copies*, so what TCP delivers is its
        decision, whatever the loop's timing (see :mod:`repro.cluster.faults`).
        """
        if self._uplink_writer is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        envelope = encode_data(
            epoch=parcel.uid, sender=self.node_id, uid=parcel.uid, attempt=attempt,
            manifest=parcel.message.manifest, inner=frame,
        )
        for _ in range(copies):
            self._uplink_writer.write_frame(envelope)
        self.channel.ledger.edge(parcel.edge).envelope_bytes += copies * len(envelope)

    async def _ack_loop(self, frames: FrameReader) -> None:
        """Hand every ACK back on the uplink to the driver."""
        _, edge = self._uplink[self.node_id]
        async for envelope in self._envelopes(frames, AckEnvelope):
            self.transport.ack(self.node_id, edge, envelope.uid)
