"""Tree nodes as asyncio TCP servers speaking the wire format.

Every node of the aggregation tree — source, aggregator, querier — runs
inside one process, bound to its own real TCP server socket on
``127.0.0.1`` (port 0, kernel-assigned).  Child nodes open a client
connection to their parent's server and keep it for the whole run; data
envelopes flow up that connection and transport ACKs flow back down it,
so the hop looks exactly like the paper's one-hop radio link with a
MAC-layer ARQ on top:

* each application send becomes one *parcel* (uid = epoch: a node sends
  exactly one PSR per epoch per hop) on the run's one per-hop ARQ,
  :class:`~repro.runtime.transport.ReliableTransport` — the same ARQ,
  dedup, ACK discipline and keyed fault oracle the event runtime
  runs.  A node is the transport's socket end: :meth:`ClusterNode.put`
  writes an attempt's envelope copies on the uplink;
* each connection, both ends, is one :class:`asyncio.Protocol` that
  reassembles and handles its frames synchronously in
  ``data_received``: the parent's side reports each arriving copy to
  the transport and writes the ACK it answers at once, the child's side
  hands each ACK to the transport.  No task reads a socket;
* every frame is handled at its *write time* on the orchestrator's
  :class:`~repro.cluster.orchestrator.ScheduledClock`: a node records
  each frame it writes in the clock's FIFO of that connection direction
  (its envelope's uid and attempt and, with a data copy, its attempt's
  verdict), and the reading node takes the entry back for each frame it
  reads.  Both ends key a connection by
  its (child, parent) socket address pair.  No timer due after a frame was written
  runs before that frame is handled, and the receiver hands the carried
  verdict to the transport rather than hashing it again;
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
the orchestrator, which the transport hands each accepted first copy,
routed by the envelope's uid, never by the attacker-readable frame
header.  Frames are handled through the clock's guard, so an error
raised while handling one fails the run like an error in a timer.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError, WireDecodeError, WireEncodeError
from repro.network.channel import Channel
from repro.network.ledger import EdgeClass
from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.framing import FrameAssembler
from repro.runtime.faults import KeyedVerdict
from repro.runtime.transport import Parcel, ReliableTransport
from repro.wire.frame import decode_header

if TYPE_CHECKING:
    from repro.cluster.orchestrator import ScheduledClock

__all__ = ["ClusterNode"]

_HOST = "127.0.0.1"


class _Link(asyncio.Protocol):
    """One cluster TCP connection: frames in through ``data_received``, out through :meth:`write`.

    *kind* is the envelope this end takes (:class:`DataEnvelope` on a
    parent's accepted connection, :class:`AckEnvelope` on a child's
    uplink) and *handle* what it does with one.  A frame that does not
    parse, or an envelope going the wrong way (children never send ACKs
    upstream, parents never send data down), means the peer is broken: a
    stream error, and the connection is dropped.
    """

    def __init__(
        self, node: ClusterNode, kind: type, handle: Callable[[Any, _Link], None]
    ) -> None:
        self._node = node
        self._kind = kind
        self._handle = handle
        self._assembler = FrameAssembler()
        self._transport: asyncio.Transport
        #: The clock's names of the frames in flight towards this end and away from it.
        self.inbound: tuple[object, type]
        self.outbound: tuple[object, type]
        #: Resolved once the connection is gone: what a clean shutdown awaits.
        self.closed: asyncio.Future[None] = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        # Both ends name the connection by its (child, parent) address
        # pair — a child's port alone may repeat towards another parent —
        # and each direction by the envelope type it carries.
        ends = transport.get_extra_info("sockname"), transport.get_extra_info("peername")
        parent_side = self._kind is DataEnvelope
        connection = ends[::-1] if parent_side else ends
        self.inbound = (connection, self._kind)
        self.outbound = (connection, AckEnvelope if parent_side else DataEnvelope)

    def data_received(self, data: bytes) -> None:
        self._node.guard(self._read, data)

    def _read(self, data: bytes) -> None:
        try:
            frames = self._assembler.feed(data)
        except WireDecodeError:
            return self._drop()
        for frame in frames:
            try:
                envelope = decode_envelope(frame)
            except WireDecodeError:
                return self._drop()
            if not isinstance(envelope, self._kind):
                return self._drop()
            self._handle(envelope, self)

    def _drop(self) -> None:
        self._node.stream_errors += 1
        self._transport.close()

    def eof_received(self) -> None:
        """The peer half-closed: the stream must end on a frame boundary.

        Returning ``None`` closes this side too, after whatever was
        written (every ACK the peer's data asked for) is flushed.
        """
        try:
            self._assembler.finish()
        except WireDecodeError:
            self._node.stream_errors += 1

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is None:
            self.closed.set_result(None)
        else:
            self.closed.set_exception(exc)

    def write(self, frame: bytes) -> None:
        """Queue one frame on the connection; never waits.

        The frame is length-checked against its own header first — a
        sender bug that would desynchronize the receiver's framing must
        fail here, loudly, not at the far end.  A closing connection (a
        dead peer) raises :class:`~repro.errors.SimulationError` rather
        than drop the frame; what the socket does not take at once stays
        buffered in the transport.
        """
        announced = decode_header(frame).total_len
        if announced != len(frame):
            raise WireEncodeError(
                f"refusing to write a {len(frame)}-byte frame whose header "
                f"announces {announced} bytes"
            )
        if self._transport.is_closing():
            raise SimulationError("refusing to write a frame on a closing connection")
        self._transport.write(frame)

    def half_close(self) -> None:
        """Send FIN: no more frames from this end."""
        self._transport.write_eof()


class ClusterNode:
    """One tree node: a TCP server plus an optional uplink to its parent.

    *channel* is the run's channel and *transport* the run's per-hop ARQ,
    both shared by every node: the channel's ledger is the run's one hop
    ledger.  *uplink* is the tree's table ``{node: (receiver, edge class)}``
    (:attr:`~repro.runtime.epoch.EpochPlanner.uplink`): it names this
    node's own hop (none on the querier) and which senders are its
    children.  *clock* is the run's scheduled clock: it keeps the frames
    in flight and runs every received chunk's handling
    (:meth:`~repro.cluster.orchestrator.ScheduledClock.receive`).
    """

    def __init__(
        self,
        node_id: int,
        *,
        channel: Channel,
        uplink: Mapping[int, tuple[int, EdgeClass]],
        transport: ReliableTransport,
        clock: ScheduledClock,
    ) -> None:
        self.node_id = node_id
        self.channel = channel
        self._uplink = uplink
        self.transport = transport
        self.clock = clock
        #: What each connection runs a received chunk through.
        self.guard = clock.receive
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        #: The connection to the parent, and every connection a child opened.
        self._parent: _Link | None = None
        self._children: list[_Link] = []
        #: Frames that failed envelope parsing, came the wrong way, or were
        #: cut off by EOF — impossible from a well-behaved peer; conservation
        #: catches the imbalance and this counter names the culprit node.
        self.stream_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Bind the node's server socket; returns the kernel-assigned port."""
        if self._server is not None:
            raise SimulationError(f"node {self.node_id} already started")
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, host=_HOST, port=0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def _accept(self) -> _Link:
        link = self._watch(_Link(self, DataEnvelope, self._handle_data))
        self._children.append(link)
        return link

    async def connect_uplink(self, port: int) -> None:
        """Open the persistent client connection to the parent's server."""
        if self._parent is not None:
            raise SimulationError(f"node {self.node_id} already has an uplink")
        _, self._parent = await asyncio.get_running_loop().create_connection(
            lambda: self._watch(_Link(self, AckEnvelope, self._handle_ack)), _HOST, port
        )

    def _watch(self, link: _Link) -> _Link:
        """Once *link* is gone, the frames in flight towards it never will be read."""
        link.closed.add_done_callback(lambda _: self.clock.discard(link.inbound))
        return link

    async def close_uplink(self) -> None:
        """Half-close the uplink (FIN), then wait until the parent closed it.

        The half-close ordering is what keeps the ACK conservation law
        exact at shutdown: the parent sees our EOF only after all data,
        has ACKed every copy by then and closes its side — and our end
        reads every byte the parent wrote before it sees that EOF.
        """
        if self._parent is None:
            return
        self._parent.half_close()
        await self._parent.closed
        self._parent = None

    async def stop(self) -> None:
        """Close the uplink, stop accepting, then wait for every child's connection to close."""
        await self.close_uplink()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self._children:
            await link.closed

    # ------------------------------------------------------------------
    # Inbound: data envelopes from children, ACKs from the parent
    # ------------------------------------------------------------------

    def _classify(self, sender: int) -> EdgeClass:
        hop = self._uplink.get(sender)
        if hop is None or hop[0] != self.node_id:
            raise SimulationError(
                f"node {self.node_id} received a frame from {sender}, which is "
                "not one of its children in the aggregation tree"
            )
        return hop[1]

    def _handle_data(self, envelope: DataEnvelope, link: _Link) -> None:
        self.clock.arrive(
            link.inbound, (envelope.uid, envelope.attempt), self._take_copy, envelope, link
        )

    def _take_copy(self, verdict: KeyedVerdict, envelope: DataEnvelope, link: _Link) -> None:
        """Report one arriving copy, with its attempt's *verdict*, to the
        transport; write the ACK it answers.

        A first copy is accepted off the channel here, at the receiver.
        """
        edge = self._classify(envelope.sender)
        if self.transport.receive(
            envelope.sender, self.node_id, edge, envelope.uid, envelope.attempt,
            lambda: self.channel.accept(
                envelope.inner, envelope.sender, self.node_id, edge, envelope.manifest
            ),
            verdict,
        ):
            ack = encode_ack(epoch=envelope.epoch, uid=envelope.uid, attempt=envelope.attempt)
            link.write(ack)
            self.clock.wrote(link.outbound, (envelope.uid, envelope.attempt))
            self.channel.ledger.edge(edge).ack_bytes += len(ack)

    def _handle_ack(self, envelope: AckEnvelope, link: _Link) -> None:
        self.clock.arrive(link.inbound, (envelope.uid, envelope.attempt), self._take_ack, envelope)

    def _take_ack(self, verdict: None, envelope: AckEnvelope) -> None:
        """Hand one ACK back on the uplink to the transport."""
        self.transport.ack(self.node_id, self._uplink[self.node_id][1], envelope.uid)

    # ------------------------------------------------------------------
    # Outbound: the transport's link over the uplink
    # ------------------------------------------------------------------

    def put(self, parcel: Parcel, frame: bytes, attempt: int, verdict: KeyedVerdict) -> None:
        """Write the verdict's copies of one attempt's *frame* on the uplink.

        The keyed schedule chose how many, so what TCP delivers is its
        decision, whatever the loop's timing (see
        :class:`repro.runtime.faults.KeyedFaultInjector`).
        """
        link = self._parent
        if link is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        envelope = encode_data(
            epoch=parcel.uid, sender=self.node_id, uid=parcel.uid, attempt=attempt,
            manifest=parcel.message.manifest, inner=frame,
        )
        for _ in range(verdict.copies):
            link.write(envelope)
            self.clock.wrote(link.outbound, (parcel.uid, attempt), verdict)
        self.channel.ledger.edge(parcel.edge).envelope_bytes += verdict.copies * len(envelope)
