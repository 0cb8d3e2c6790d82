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
* the inner protocol frame is encoded **once** per parcel and carried
  byte-identical across retransmissions; only the envelope's attempt
  counter changes (see :mod:`repro.cluster.envelope`);
* a sender giving up does **not** retract a delivered copy: downstream
  correctness derives from the manifests receivers really merged.

Roles reuse the protocol role objects unchanged: the aggregator holds
and waits (merge at ``epoch launch + hold_time × height``, or as soon
as every expected child arrived), the querier turns the final manifest
into the paper's reported-failure subset and evaluates the exact SUM
over the survivors (:class:`~repro.runtime.recovery.EpochRecovery`).
"""

from __future__ import annotations

import asyncio

from repro.errors import (
    ConfigurationError,
    SimulationError,
    WireDecodeError,
    WireEncodeError,
)
from repro.network.channel import EdgeClass
from repro.cluster.clock import ClusterClock
from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.framing import FrameReader, FrameWriter
from repro.cluster.metrics import ClusterEpochResult
from repro.protocols.base import AggregatorRole, PartialStateRecord, QuerierRole, SourceRole
from repro.runtime.faults import KeyedFaultInjector
from repro.runtime.hop import (
    DECODE_FAILURE,
    DELIVERED,
    LATE,
    HopEngine,
    HopLedger,
    Parcel,
    RetransmitPolicy,
    TransportObserver,
)
from repro.runtime.recovery import settle_final, settle_lost
from repro.wire.codec import PSRCodec

__all__ = ["ClusterNode", "SourceNode", "AggregatorNode", "QuerierNode"]

_HOST = "127.0.0.1"


class ClusterNode:
    """One tree node: a TCP server plus an optional uplink to its parent."""

    def __init__(
        self,
        node_id: int,
        *,
        ledger: HopLedger,
        injector: KeyedFaultInjector,
        policy: RetransmitPolicy,
        clock: ClusterClock,
        seed: int,
        edge_of_sender: dict[int, EdgeClass],
        observer: TransportObserver | None = None,
    ) -> None:
        self.node_id = node_id
        self.ledger = ledger
        self.clock = clock
        #: This node's half of every hop it takes part in: sender on its
        #: uplink, receiver for its children.  The observer gets the
        #: same ``(kind, attrs)`` events as on the runtime, so one trace
        #: adapter observes both substrates.
        self.engine = HopEngine(
            injector, policy, ledger, seed=seed, now=clock.now, observer=observer
        )
        #: child node id → edge class of the link it sends on.
        self._edge_of_sender = edge_of_sender
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        # Uplink to the parent (absent on the querier).
        self._parent_id: int | None = None
        self._parent_edge: EdgeClass | None = None
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

    async def connect_uplink(self, parent_id: int, port: int, edge: EdgeClass) -> None:
        """Open the persistent client connection to the parent's server."""
        if self._uplink_writer is not None:
            raise SimulationError(f"node {self.node_id} already has an uplink")
        reader, writer = await asyncio.open_connection(_HOST, port)
        self._parent_id = parent_id
        self._parent_edge = edge
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
        edge = self._edge_of_sender.get(sender)
        if edge is None:
            raise SimulationError(
                f"node {self.node_id} received a frame from {sender}, which is "
                "not one of its children in the aggregation tree"
            )
        return edge

    async def _handle_data(self, envelope: DataEnvelope, acks: FrameWriter) -> None:
        edge = self._classify(envelope.sender)
        if self.engine.receive(
            envelope.sender,
            self.node_id,
            edge,
            envelope.uid,
            envelope.attempt,
            lambda: self._deliver(envelope),
        ):
            ack = encode_ack(epoch=envelope.epoch, uid=envelope.uid, attempt=envelope.attempt)
            await acks.write_frame(ack)
            self.ledger.edge(edge).ack_bytes += len(ack)

    def _deliver(self, envelope: DataEnvelope) -> str:
        """Role-specific handling of a first copy; returns its disposition."""
        raise SimulationError(f"node {self.node_id} does not accept data frames")

    # ------------------------------------------------------------------
    # Outbound: the per-hop ARQ over the uplink
    # ------------------------------------------------------------------

    async def _ack_loop(self, frames: FrameReader) -> None:
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
            if not isinstance(envelope, AckEnvelope) or self._parent_edge is None:
                self.stream_errors += 1
                return
            pending = self._pending.get(envelope.uid)
            parcel = pending[0] if pending is not None else None
            if self.engine.ack_arrived(self._parent_edge, parcel) and pending is not None:
                pending[1].set()

    async def _send_reliable(self, *, epoch: int, manifest: frozenset[int], inner: bytes) -> bool:
        """Run one parcel through the ARQ; True once ACKed, False on give-up.

        The delivered-or-not outcome is the keyed fault schedule's, not
        the event loop's: an attempt the schedule spares is physically
        written (TCP then delivers it), an attempt it swallows is never
        written.  Slow ACKs can only add extra attempts whose copies the
        receiver suppresses — see :func:`repro.cluster.faults.parcel_fate`.
        """
        if self._uplink_writer is None or self._parent_edge is None or self._parent_id is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        parcel = Parcel(self.node_id, self._parent_id, self._parent_edge, epoch, manifest)
        event = asyncio.Event()
        self._pending[epoch] = (parcel, event)
        try:
            while True:
                copies, timeout = self.engine.attempt(parcel)
                if copies:
                    frame = encode_data(
                        epoch=epoch,
                        sender=self.node_id,
                        uid=epoch,
                        attempt=parcel.attempts - 1,
                        manifest=manifest,
                        inner=inner,
                    )
                    for _ in range(copies):
                        await self._uplink_writer.write_frame(frame)
                    self.ledger.edge(self._parent_edge).envelope_bytes += copies * len(frame)
                try:
                    await self.clock.wait_for(event.wait(), timeout)
                    return True
                except TimeoutError:
                    if not self.engine.expire(parcel):
                        return parcel.acked
        finally:
            del self._pending[epoch]

    async def _send_psr(
        self,
        codec: PSRCodec,
        *,
        epoch: int,
        psr: PartialStateRecord,
        manifest: frozenset[int],
    ) -> bool:
        """Encode *psr* once, cross-check the size contract, run the ARQ."""
        if self._parent_edge is None:
            raise SimulationError(f"node {self.node_id} has no uplink to send on")
        inner = codec.encode(psr)
        expected = codec.framed_size(psr)
        if len(inner) != expected:
            raise WireEncodeError(
                f"{len(inner)}-byte frame for a PSR whose analytic size announces "
                f"{expected} bytes — wire format and model have diverged"
            )
        self.ledger.edge(self._parent_edge).psr_bytes += len(inner)
        return await self._send_reliable(epoch=epoch, manifest=manifest, inner=inner)


class SourceNode(ClusterNode):
    """Initialization phase ``I`` at a leaf: value → PSR → uplink."""

    def __init__(self, node_id: int, role: SourceRole, codec: PSRCodec, **kwargs) -> None:
        super().__init__(node_id, edge_of_sender={}, **kwargs)
        self.role = role
        self.codec = codec

    async def run_epoch(self, epoch: int, value: int) -> bool:
        psr = self.role.initialize(epoch, value)
        return await self._send_psr(
            self.codec, epoch=epoch, psr=psr, manifest=frozenset((self.node_id,))
        )


class _AggregatorEpoch:
    """Inbox and deadline state of one in-flight epoch at an aggregator."""

    __slots__ = ("expected", "inbox", "complete", "closed")

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.inbox: list[tuple[PartialStateRecord, frozenset[int]]] = []
        #: Set when every expected child contribution has arrived.
        self.complete = asyncio.Event()
        self.closed = False


class AggregatorNode(ClusterNode):
    """Merging phase ``M``: hold-and-wait, then forward PSR + manifest."""

    def __init__(
        self,
        node_id: int,
        role: AggregatorRole,
        codec: PSRCodec,
        *,
        is_root: bool,
        **kwargs,
    ) -> None:
        super().__init__(node_id, **kwargs)
        self.role = role
        self.codec = codec
        self.is_root = is_root
        self._epochs: dict[int, _AggregatorEpoch] = {}

    def _deliver(self, envelope: DataEnvelope) -> str:
        state = self._epochs.get(envelope.epoch)
        if state is None or state.closed:
            return LATE
        try:
            psr = self.codec.decode(envelope.inner)
        except WireDecodeError:
            return DECODE_FAILURE
        state.inbox.append((psr, envelope.manifest))
        if len(state.inbox) >= state.expected:
            state.complete.set()
        return DELIVERED

    def open_epoch(self, epoch: int, expected: int) -> None:
        """Register the epoch's inbox *before* any child may send.

        Synchronous on purpose: the orchestrator opens every epoch on
        every node in one event-loop step, then launches the sources —
        so an early arrival can never race an unregistered inbox.
        """
        if epoch in self._epochs:
            raise SimulationError(f"aggregator {self.node_id} already opened epoch {epoch}")
        self._epochs[epoch] = _AggregatorEpoch(expected)

    async def run_epoch(self, epoch: int, hold: float) -> None:
        """Hold until deadline *hold* (or all expected children), merge, forward."""
        state = self._epochs.get(epoch)
        if state is None:
            raise SimulationError(
                f"aggregator {self.node_id} ran epoch {epoch} without opening it"
            )
        try:
            await self.clock.wait_for(state.complete.wait(), hold)
        except TimeoutError:
            pass  # deadline merge: take whatever arrived
        state.closed = True
        if not state.inbox:
            return  # whole subtree lost this epoch; nothing to forward
        psrs = [psr for psr, _ in state.inbox]
        manifest = frozenset().union(*(man for _, man in state.inbox))
        merged = self.role.merge(epoch, psrs)
        if self.is_root:
            merged = self.role.finalize_for_querier(merged)
        await self._send_psr(self.codec, epoch=epoch, psr=merged, manifest=manifest)


class _QuerierEpoch:
    """One epoch awaiting its final PSR at the querier."""

    __slots__ = ("attempted", "pre_failed", "started_at", "settled", "closed", "result")

    def __init__(self, attempted: frozenset[int], pre_failed: frozenset[int], started_at: float) -> None:
        self.attempted = attempted
        self.pre_failed = pre_failed
        self.started_at = started_at
        self.settled = asyncio.Event()
        self.closed = False
        self.result: ClusterEpochResult | None = None


class QuerierNode(ClusterNode):
    """Evaluation phase ``E``: recovery subset + exact SUM over survivors."""

    def __init__(
        self,
        node_id: int,
        role: QuerierRole,
        codec: PSRCodec,
        *,
        num_sources: int,
        evaluate: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(node_id, **kwargs)
        self.role = role
        self.codec = codec
        self.num_sources = num_sources
        self.evaluate = evaluate
        self._epochs: dict[int, _QuerierEpoch] = {}

    def _deliver(self, envelope: DataEnvelope) -> str:
        state = self._epochs.get(envelope.epoch)
        if state is None or state.closed:
            return LATE
        try:
            psr = self.codec.decode(envelope.inner)
        except WireDecodeError:
            return DECODE_FAILURE
        state.closed = True
        settlement = settle_final(
            self.role,
            envelope.epoch,
            psr,
            attempted=state.attempted,
            manifest=envelope.manifest,
            pre_failed=state.pre_failed,
            num_sources=self.num_sources,
            evaluate=self.evaluate,
        )
        state.result = ClusterEpochResult(
            epoch=envelope.epoch,
            recovery=settlement.recovery,
            result=settlement.result,
            security_failure=settlement.security_failure,
            completion_latency=self.clock.now() - state.started_at,
        )
        state.settled.set()
        return DELIVERED

    def open_epoch(
        self, epoch: int, attempted: frozenset[int], pre_failed: frozenset[int]
    ) -> None:
        """Register the epoch (and stamp its start) before any source sends."""
        if epoch in self._epochs:
            raise SimulationError(f"querier already opened epoch {epoch}")
        self._epochs[epoch] = _QuerierEpoch(attempted, pre_failed, self.clock.now())

    async def run_epoch(self, epoch: int, deadline: float) -> ClusterEpochResult:
        """Wait up to *deadline* seconds for the final PSR; settle the epoch."""
        state = self._epochs.get(epoch)
        if state is None:
            raise SimulationError(f"querier ran epoch {epoch} without opening it")
        try:
            await self.clock.wait_for(state.settled.wait(), deadline)
        except TimeoutError:
            pass
        if state.result is None:
            # Nothing arrived: the epoch is lost, not wrong.
            state.closed = True
            settlement = settle_lost(
                epoch, attempted=state.attempted, pre_failed=state.pre_failed
            )
            state.result = ClusterEpochResult(
                epoch=epoch,
                recovery=settlement.recovery,
                security_failure=settlement.security_failure,
            )
        return state.result


def require_codec(codec: PSRCodec | None, protocol_name: str) -> PSRCodec:
    """The cluster cannot run a protocol that has no wire format."""
    if codec is None:
        raise ConfigurationError(
            f"protocol {protocol_name!r} provides no wire codec; the TCP cluster "
            "only transports real byte frames"
        )
    return codec
