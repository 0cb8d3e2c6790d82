"""The per-hop ARQ: retransmission, backoff, dedup, give-up semantics."""

from __future__ import annotations

import pytest

from repro.core.source import SIESRecord
from repro.errors import ParameterError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.runtime.events import EventScheduler
from repro.runtime.faults import FaultPlan, KeyedFaultInjector, LinkProfile, NodeOutage
from repro.runtime.transport import ReliableTransport, RetransmitPolicy
from repro.wire.codecs import SIESCodec

MODULUS_BYTES = 32


def _channel() -> Channel:
    return Channel(SIESCodec(MODULUS_BYTES))


def _record(epoch: int = 1) -> SIESRecord:
    return SIESRecord(ciphertext=12345, epoch=epoch, modulus_bytes=MODULUS_BYTES)


def make_transport(plan: FaultPlan, policy: RetransmitPolicy | None = None, *, seed: int = 0):
    scheduler = EventScheduler()
    transport = ReliableTransport(
        scheduler,
        KeyedFaultInjector(plan, seed=seed),
        _channel(),
        policy or RetransmitPolicy(),
        seed=seed,
    )
    return scheduler, transport


def send_one(transport: ReliableTransport, *, epoch: int = 1):
    delivered: list[frozenset[int]] = []
    parcel = transport.send(
        DataMessage(0, 1, epoch, _record(epoch), frozenset({0})),
        EdgeClass.SOURCE_TO_AGGREGATOR,
        on_deliver=lambda m: delivered.append(m.manifest),
    )
    return parcel, delivered


def test_policy_validation() -> None:
    with pytest.raises(ParameterError):
        RetransmitPolicy(max_retries=-1)
    with pytest.raises(ParameterError):
        RetransmitPolicy(ack_timeout=0)
    with pytest.raises(ParameterError):
        RetransmitPolicy(backoff=0.5)


def test_backoff_grows_exponentially() -> None:
    policy = RetransmitPolicy(ack_timeout=10.0, backoff=2.0, jitter=0.0)
    assert [policy.timeout_for(a, 0.0) for a in range(4)] == [10.0, 20.0, 40.0, 80.0]
    jittered = RetransmitPolicy(ack_timeout=10.0, backoff=2.0, jitter=0.5)
    assert jittered.timeout_for(0, 1.0) == pytest.approx(15.0)
    assert jittered.worst_case_span() > policy.worst_case_span()


def test_clean_link_delivers_first_attempt() -> None:
    scheduler, transport = make_transport(FaultPlan.lossless())
    parcel, delivered = send_one(transport)
    scheduler.run()
    assert delivered == [frozenset({0})]
    assert parcel.acked and not parcel.failed
    assert parcel.attempts == 1
    assert transport.ledger.total("retransmissions") == 0


def test_lossy_link_retransmits_until_delivery() -> None:
    # ~60% loss: first attempts often die, the ARQ must push through.
    plan = FaultPlan.uniform_loss(0.6, latency=1.0, jitter=0.0)
    scheduler, transport = make_transport(plan, RetransmitPolicy(max_retries=8), seed=11)
    outcomes = [send_one(transport, epoch=e) for e in range(1, 21)]
    scheduler.run()
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    delivered_count = sum(len(d) for _, d in outcomes)
    assert delivered_count >= 19  # 9 attempts at 60% loss: ~0.999^… practically all
    assert transport.ledger.retransmissions[edge] > 0
    assert transport.ledger.attempts[edge] > 20


def test_retry_budget_exhaustion_reports_failure() -> None:
    plan = FaultPlan.uniform_loss(1.0)  # the void: nothing ever arrives
    policy = RetransmitPolicy(max_retries=3, ack_timeout=5.0, jitter=0.0)
    scheduler, transport = make_transport(plan, policy)
    parcel, delivered = send_one(transport)
    scheduler.run()
    assert delivered == []
    assert parcel.failed and not parcel.acked
    assert parcel.attempts == 4  # 1 original + 3 retries
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    assert transport.ledger.gave_up[edge] == 1
    assert transport.ledger.retransmissions[edge] == 3


def test_duplicates_suppressed_at_receiver() -> None:
    plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0, jitter=0.0))
    scheduler, transport = make_transport(plan)
    _, delivered = send_one(transport)
    scheduler.run()
    assert delivered == [frozenset({0})]  # app sees exactly one copy
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    assert transport.ledger.duplicates_suppressed[edge] >= 1


def test_lost_ack_causes_spurious_retransmit_but_single_delivery() -> None:
    # Data direction 0->1 is clean; ACK direction 1->0 is the void.
    plan = FaultPlan.lossless()
    policy = RetransmitPolicy(max_retries=2, ack_timeout=5.0, jitter=0.0)
    scheduler = EventScheduler()
    injector = KeyedFaultInjector(plan, seed=0)
    injector.ack_verdict = lambda *coordinate: True  # type: ignore[method-assign]
    transport = ReliableTransport(scheduler, injector, _channel(), policy, seed=0)
    parcel, delivered = send_one(transport)
    scheduler.run()
    # The receiver got it (once, despite 3 physical copies); the sender
    # believes it failed — and that belief must NOT retract the delivery.
    assert delivered == [frozenset({0})]
    assert parcel.failed and not parcel.acked
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    assert transport.ledger.gave_up[edge] == 1
    assert transport.ledger.acks_dropped[edge] == 3
    assert transport.ledger.duplicates_suppressed[edge] == 2


def test_crashed_receiver_neither_delivers_nor_acks() -> None:
    plan = FaultPlan(outages=(NodeOutage(node_id=1, first_epoch=0),))
    policy = RetransmitPolicy(max_retries=1, ack_timeout=5.0, jitter=0.0)
    scheduler, transport = make_transport(plan, policy)
    parcel, delivered = send_one(transport)
    scheduler.run()
    assert delivered == []
    assert parcel.failed and not parcel.acked
    assert transport.ledger.gave_up[EdgeClass.SOURCE_TO_AGGREGATOR] == 1


def test_channel_interceptor_sees_every_physical_attempt() -> None:
    plan = FaultPlan.uniform_loss(1.0)
    policy = RetransmitPolicy(max_retries=4, ack_timeout=2.0, jitter=0.0)
    scheduler = EventScheduler()
    channel = _channel()
    seen: list[int] = []
    channel.add_interceptor(lambda m, e: (seen.append(m.epoch), m)[1])
    transport = ReliableTransport(
        scheduler, KeyedFaultInjector(plan, seed=0), channel, policy, seed=0
    )
    transport.send(
        DataMessage(0, 1, 7, _record(7), frozenset({0})),
        EdgeClass.SOURCE_TO_AGGREGATOR,
    )
    scheduler.run()
    assert seen == [7] * 5  # adversary saw the original and all 4 retransmits
    sa = channel.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert sa.messages == sa.attempts == 5  # channel and engine share one ledger
    assert transport.ledger is channel.ledger


def test_adversarial_drop_looks_like_loss_and_triggers_retransmit() -> None:
    scheduler = EventScheduler()
    channel = _channel()
    # Drop the first two physical attempts, then let traffic through.
    state = {"count": 0}

    def drop_twice(message, edge):
        state["count"] += 1
        return None if state["count"] <= 2 else message

    channel.add_interceptor(drop_twice)
    transport = ReliableTransport(
        scheduler,
        KeyedFaultInjector(FaultPlan.lossless(), seed=0),
        channel,
        RetransmitPolicy(max_retries=4, ack_timeout=3.0, jitter=0.0),
        seed=0,
    )
    delivered: list[frozenset[int]] = []
    transport.send(
        DataMessage(0, 1, 1, _record(), frozenset({0})),
        EdgeClass.SOURCE_TO_AGGREGATOR,
        on_deliver=lambda m: delivered.append(m.manifest),
    )
    scheduler.run()
    assert delivered == [frozenset({0})]
    assert transport.ledger.retransmissions[EdgeClass.SOURCE_TO_AGGREGATOR] == 2
