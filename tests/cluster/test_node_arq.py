"""One hop over a real socket: ARQ, dedup, give-up, ACK accounting.

A single source→aggregator link built from two real
:class:`~repro.cluster.node.ClusterNode` endpoints sharing one
:class:`~repro.runtime.transport.ReliableTransport` on one
:class:`~repro.cluster.orchestrator.ScheduledClock`, wired as the
orchestrator wires them (the driver hands every decoded first copy to a
recording ``deliver``), so every counter the ledger keeps can be pinned
exactly against the keyed fault schedule — attempts included: on the
scheduled clock every surviving ACK beats its timeout.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.orchestrator import ScheduledClock
from repro.core.protocol import SIESProtocol
from repro.errors import SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.runtime.faults import FaultPlan, KeyedFaultInjector, LinkProfile
from repro.runtime.transport import (
    DELIVERED,
    Parcel,
    ReliableTransport,
    RetransmitPolicy,
    parcel_fate,
)

pytestmark = pytest.mark.cluster

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR
#: Generous ACK timeout: the success path returns the moment the ACK
#: lands (no cost), and only give-up paths pay the full backoff span.
PATIENT = RetransmitPolicy(max_retries=4, ack_timeout=0.2, backoff=1.5, jitter=0.25)
#: Tight budget for tests that must exhaust it.
IMPATIENT = RetransmitPolicy(max_retries=4, ack_timeout=0.02, backoff=1.5, jitter=0.25)

_PROTOCOL = SIESProtocol(1, seed=5)
_CODEC = _PROTOCOL.wire_codec()


class _Hop:
    """A live source→aggregator link plus its accounting.

    Built inside the running loop: the driver runs on its timer.
    """

    def __init__(self, plan: FaultPlan, policy: RetransmitPolicy, seed: int) -> None:
        self.channel = Channel(_CODEC)
        self.ledger = self.channel.ledger
        self.injector = KeyedFaultInjector(plan, seed=seed)
        #: ``(receiver, epoch, psr, manifest)`` of every first copy.
        self.delivered: list[tuple] = []
        #: parcel uid → the future its finish (ACK or give-up) resolves.
        self._finished: dict[int, asyncio.Future] = {}
        loop = asyncio.get_running_loop()
        self.clock = ScheduledClock(loop, lambda fn, *args: fn(*args))
        self.transport = ReliableTransport(
            self.injector,
            policy,
            self.channel,
            now=loop.time,
            call_later=self.clock.call_later,
            wire=self.channel.emit,
            put=lambda parcel, *attempt: self.child.put(parcel, *attempt),
            deliver=self._deliver,
            on_finished=self._finish,
        )
        common = dict(
            channel=self.channel, uplink={0: (1, EDGE)}, transport=self.transport,
            clock=self.clock,
        )
        self.parent = ClusterNode(1, **common)
        self.child = ClusterNode(0, **common)
        self.source = _PROTOCOL.create_source(0)

    def _deliver(self, receiver, epoch, psr, manifest) -> str:
        self.delivered.append((receiver, epoch, psr, manifest))
        return DELIVERED

    def _finish(self, parcel: Parcel) -> None:
        self._finished.pop(parcel.uid).set_result(None)

    async def send(self, epoch: int, value: int) -> bool:
        """The source's PSR for *epoch* through the driver; True once ACKed,
        False on give-up."""
        psr = self.source.initialize(epoch, value)
        finished = asyncio.get_running_loop().create_future()
        self._finished[epoch] = finished
        parcel = self.transport.send(DataMessage(0, 1, epoch, psr, frozenset({0})), EDGE)
        self.clock.pump()  # sent outside any clock callback: arm its timer
        await finished
        return parcel.acked

    async def __aenter__(self) -> "_Hop":
        await self.parent.start()
        assert self.parent.port is not None
        await self.child.connect_uplink(self.parent.port)
        return self

    async def __aexit__(self, *exc_info) -> None:
        # The orchestrator's shutdown order: child half-closes and drains
        # its ACKs, then the server stops — keeps ACK conservation exact.
        await self.child.close_uplink()
        await self.parent.stop()

    def counters(self):
        return self.ledger.edge(EDGE)


def _run(coro):
    return asyncio.run(coro)


def test_lossless_delivery_pins_every_counter() -> None:
    async def scenario() -> None:
        async with _Hop(FaultPlan.lossless(), PATIENT, seed=0) as hop:
            assert await hop.send(1, 42) is True
        psr = _PROTOCOL.create_source(0).initialize(1, 42)
        # The parent decoded the inner frame and handed it on, manifest and all.
        assert hop.delivered == [(1, 1, psr, frozenset({0}))]
        c = hop.counters()
        assert c.attempts == 1 and c.retransmissions == 0
        assert c.drops_injected == 0 and c.dup_copies == 0
        assert c.frames_sent == 1 and c.frames_received == 1
        assert c.delivered == 1 and c.duplicates_suppressed == 0
        assert c.late_frames == 0 and c.decode_failures == 0 and c.gave_up == 0
        assert c.acks_sent == 1 and c.acks_dropped == 0 and c.acks_received == 1
        assert c.messages == 1
        assert c.payload_bytes == psr.wire_size()
        assert c.frame_bytes == _CODEC.framed_size(psr)
        assert c.envelope_bytes > c.frame_bytes  # envelope wraps the PSR frame
        hop.ledger.check_conservation()

    _run(scenario())


def test_duplicated_copy_is_suppressed_and_still_acked() -> None:
    async def scenario() -> None:
        plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0))
        async with _Hop(plan, PATIENT, seed=0) as hop:
            assert await hop.send(1, 42) is True
        assert len(hop.delivered) == 1
        c = hop.counters()
        assert c.attempts == 1
        assert c.frames_sent == 2 and c.dup_copies == 1
        assert c.delivered == 1 and c.duplicates_suppressed == 1
        # The transport ACKs *every* received copy.
        assert c.acks_sent == 2 and c.acks_received == 2
        hop.ledger.check_conservation()

    _run(scenario())


def test_total_loss_exhausts_budget_and_gives_up() -> None:
    async def scenario() -> None:
        async with _Hop(FaultPlan.uniform_loss(1.0), IMPATIENT, seed=0) as hop:
            assert await hop.send(1, 42) is False
        assert hop.delivered == []
        c = hop.counters()
        assert c.attempts == IMPATIENT.max_attempts
        assert c.retransmissions == IMPATIENT.max_attempts - 1
        assert c.drops_injected == IMPATIENT.max_attempts
        assert c.frames_sent == 0 and c.frames_received == 0 and c.delivered == 0
        assert c.gave_up == 1 and c.acks_sent == 0
        # Every attempt is a radio transmission the link then ate: the
        # traffic counters still charge each one, the envelopes none.
        psr = _PROTOCOL.create_source(0).initialize(1, 42)
        assert c.messages == IMPATIENT.max_attempts
        assert c.payload_bytes == IMPATIENT.max_attempts * psr.wire_size()
        assert c.frame_bytes == IMPATIENT.max_attempts * _CODEC.framed_size(psr)
        assert c.envelope_bytes == 0
        hop.ledger.check_conservation()

    _run(scenario())


def test_give_up_does_not_retract_a_delivered_copy() -> None:
    """Data through, every ACK lost: the sender gives up, but the parent
    really holds the PSR — downstream truth comes from receiver state."""
    plan = FaultPlan.uniform_loss(0.5)
    seed = 23
    probe = KeyedFaultInjector(plan, seed=seed)
    uid = None
    for candidate in range(1, 4000):
        delivered = acked = False
        for attempt in range(IMPATIENT.max_attempts):
            if not probe.data_verdict(0, 1, EDGE, candidate, attempt).lost:
                delivered = True
                if not probe.ack_verdict(0, 1, EDGE, candidate, attempt):
                    acked = True
                    break
        if delivered and not acked:
            uid = candidate
            break
    assert uid is not None, "schedule search found no delivered-but-unACKed parcel"

    async def scenario() -> None:
        async with _Hop(plan, IMPATIENT, seed=seed) as hop:
            assert await hop.send(uid, 42) is False  # gave up...
        assert [epoch for _, epoch, _, _ in hop.delivered] == [uid]
        c = hop.counters()
        assert c.delivered == 1  # ...yet the copy was delivered
        assert c.gave_up == 1
        assert c.acks_dropped == c.frames_received > 0
        assert c.acks_sent == 0 and c.acks_received == 0
        hop.ledger.check_conservation()

    _run(scenario())


def test_lossy_epochs_match_the_parcel_fate_oracle() -> None:
    """Across many epochs at 40% loss, the delivered set (and the drop /
    duplicate injections) are exactly the keyed schedule's prediction."""
    plan = FaultPlan(default_profile=LinkProfile(loss_rate=0.4, duplicate_rate=0.1))
    seed = 2011
    epochs = range(1, 31)

    async def scenario():
        async with _Hop(plan, IMPATIENT, seed=seed) as hop:
            outcomes = {}
            for epoch in epochs:
                outcomes[epoch] = await hop.send(epoch, epoch)
            return hop, outcomes

    hop, outcomes = _run(scenario())
    oracle = KeyedFaultInjector(plan, seed=seed)
    fates = {
        epoch: parcel_fate(oracle, IMPATIENT, 0, 1, EDGE, epoch) for epoch in epochs
    }
    c = hop.counters()
    assert c.delivered == sum(1 for delivered, _ in fates.values() if delivered)
    assert [epoch for _, epoch, _, _ in hop.delivered] == [
        epoch for epoch, (delivered, _) in fates.items() if delivered
    ]
    # Every surviving ACK beats its timeout on the scheduled clock.
    assert c.attempts == sum(attempts for _, attempts in fates.values())
    assert c.retransmissions == c.attempts - len(list(epochs))
    hop.ledger.check_conservation()
    # A parcel whose every data copy the schedule ate can never be ACKed.
    for epoch, (delivered, _) in fates.items():
        if not delivered:
            assert outcomes[epoch] is False

    _run_again_is_identical = {
        epoch: parcel_fate(KeyedFaultInjector(plan, seed=seed), IMPATIENT, 0, 1, EDGE, epoch)
        for epoch in epochs
    }
    assert _run_again_is_identical == fates


def test_frame_from_unknown_sender_is_rejected() -> None:
    async def scenario() -> None:
        async with _Hop(FaultPlan.lossless(), PATIENT, seed=0) as hop:
            with pytest.raises(SimulationError):
                hop.parent._classify(99)
            # A node is not the receiver of its own uplink either.
            with pytest.raises(SimulationError):
                hop.child._classify(0)

    _run(scenario())
