"""The clock-free hop engine, driven by hand: no scheduler, no sockets.

Each test plays the driver's part explicitly — put the answered copies
"on the link", feed them to the receiver half, carry surviving ACKs
back, fire timeouts — so every ARQ decision is checked in isolation
from any substrate.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.runtime.faults import BurstLoss, FaultPlan, KeyedFaultInjector, KeyedVerdict
from repro.runtime.hop import (
    DELIVERED,
    LATE,
    HopEngine,
    HopLedger,
    Parcel,
    RetransmitPolicy,
)

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR
POLICY = RetransmitPolicy(max_retries=3, ack_timeout=5.0, backoff=2.0, jitter=0.0)


class ScriptedInjector(KeyedFaultInjector):
    """Keyed oracle whose data and ACK fates follow a per-attempt script."""

    def __init__(self, data: list[int], acks_lost: list[bool]) -> None:
        super().__init__(FaultPlan.lossless(), seed=0)
        self.data = data
        self.acks_lost = acks_lost

    def data_verdict(self, sender, receiver, edge, uid, attempt) -> KeyedVerdict:
        copies = self.data[attempt]
        return KeyedVerdict(lost=copies == 0, copies=copies)

    def ack_verdict(self, sender, receiver, edge, uid, attempt) -> bool:
        return self.acks_lost[attempt]


def make_engine(injector: KeyedFaultInjector, policy: RetransmitPolicy = POLICY):
    events: list[tuple[str, dict]] = []
    ledger = HopLedger()
    engine = HopEngine(
        injector,
        policy,
        ledger,
        seed=0,
        now=lambda: 0.0,
        observer=lambda kind, attrs: events.append((kind, attrs)),
    )
    return engine, ledger, events


def drive(engine: HopEngine, parcel: Parcel) -> list[str]:
    """Run one parcel to completion the way a driver would.

    Every copy the sender puts on the link reaches the receiver before
    the timeout; every surviving ACK returns before it.  Returns the
    receiver's first-copy dispositions in order.
    """
    delivered: list[str] = []
    while True:
        copies, _timeout = engine.attempt(parcel)
        attempt = parcel.attempts - 1
        for _ in range(copies):
            if engine.receive(
                parcel.sender,
                parcel.receiver,
                parcel.edge,
                parcel.uid,
                attempt,
                lambda: delivered.append(DELIVERED) or DELIVERED,
            ):
                engine.ack_arrived(parcel.edge, parcel)
        if not engine.expire(parcel):
            return delivered


def kinds(events: list[tuple[str, dict]]) -> list[str]:
    return [kind for kind, _ in events]


def test_lossless_link_delivers_on_the_first_attempt() -> None:
    engine, ledger, events = make_engine(KeyedFaultInjector(FaultPlan.lossless(), seed=0))
    parcel = Parcel(0, 1, EDGE, uid=1)
    assert drive(engine, parcel) == [DELIVERED]
    assert parcel.acked and not parcel.failed and parcel.attempts == 1
    assert kinds(events) == ["attempt", "deliver"]
    c = ledger.edge(EDGE)
    assert (c.attempts, c.frames_sent, c.delivered, c.acks_sent, c.acks_received) == (1, 1, 1, 1, 1)
    ledger.check_conservation()


def test_lossy_link_retransmits_until_it_delivers() -> None:
    engine, ledger, events = make_engine(ScriptedInjector([0, 0, 1, 1], [False] * 4))
    parcel = Parcel(0, 1, EDGE, uid=4)
    assert drive(engine, parcel) == [DELIVERED]
    assert parcel.acked and parcel.attempts == 3
    assert kinds(events) == ["attempt", "drop", "attempt", "drop", "attempt", "deliver"]
    assert all(attrs["cause"] == "link" for kind, attrs in events if kind == "drop")
    c = ledger.edge(EDGE)
    assert (c.retransmissions, c.drops_injected, c.delivered) == (2, 2, 1)
    ledger.check_conservation()


def test_sender_gives_up_after_max_attempts() -> None:
    engine, ledger, events = make_engine(KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=0))
    parcel = Parcel(0, 1, EDGE, uid=1)
    assert drive(engine, parcel) == []
    assert parcel.failed and not parcel.acked
    assert parcel.attempts == POLICY.max_attempts
    assert kinds(events)[-1] == "give_up"
    assert events[-1][1]["attempt"] == POLICY.max_attempts - 1
    c = ledger.edge(EDGE)
    assert (c.attempts, c.drops_injected, c.gave_up) == (POLICY.max_attempts,) * 2 + (1,)
    ledger.check_conservation()


def test_lost_ack_triggers_a_spurious_retransmit_but_one_delivery() -> None:
    engine, ledger, events = make_engine(ScriptedInjector([1, 1, 1, 1], [True, False, False, False]))
    parcel = Parcel(0, 1, EDGE, uid=2)
    assert drive(engine, parcel) == [DELIVERED]  # the application saw it once
    assert parcel.acked and parcel.attempts == 2
    assert kinds(events) == ["attempt", "deliver", "ack_lost", "attempt", "duplicate"]
    c = ledger.edge(EDGE)
    assert (c.delivered, c.duplicates_suppressed, c.acks_dropped, c.acks_sent) == (1, 1, 1, 1)
    ledger.check_conservation()


def test_duplicate_is_suppressed_but_still_acked() -> None:
    engine, ledger, events = make_engine(ScriptedInjector([2], [False, False]))
    parcel = Parcel(0, 1, EDGE, uid=3)
    assert drive(engine, parcel) == [DELIVERED]
    assert kinds(events) == ["attempt", "deliver", "duplicate"]
    c = ledger.edge(EDGE)
    assert (c.frames_sent, c.dup_copies, c.duplicates_suppressed) == (2, 1, 1)
    assert c.acks_sent == c.acks_received == 2  # every copy is ACKed
    ledger.check_conservation()


def test_burst_fires_only_inside_its_epoch_window() -> None:
    plan = FaultPlan(bursts=(BurstLoss(first_epoch=2, last_epoch=3, loss_rate=1.0),))
    engine, ledger, _ = make_engine(KeyedFaultInjector(plan, seed=0))
    outcome = {}
    for epoch in range(1, 6):
        parcel = Parcel(0, 1, EDGE, uid=epoch)
        outcome[epoch] = bool(drive(engine, parcel))
    assert outcome == {1: True, 2: False, 3: False, 4: True, 5: True}
    assert ledger.edge(EDGE).gave_up == 2
    ledger.check_conservation()


def test_channel_swallowed_attempt_is_counted_apart_from_the_schedule() -> None:
    engine, ledger, events = make_engine(KeyedFaultInjector(FaultPlan.lossless(), seed=0))
    parcel = Parcel(0, 1, EDGE, uid=1)
    assert engine.attempt(parcel, swallowed=True)[0] == 0
    assert kinds(events) == ["attempt", "drop"] and events[-1][1]["cause"] == "channel"
    assert ledger.edge(EDGE).drops_channel == 1 and ledger.edge(EDGE).drops_injected == 0
    ledger.check_conservation()


def test_late_first_copy_is_counted_and_acked() -> None:
    engine, ledger, events = make_engine(KeyedFaultInjector(FaultPlan.lossless(), seed=0))
    assert engine.receive(0, 1, EDGE, 1, 0, lambda: LATE)
    assert kinds(events) == ["late"]
    assert ledger.edge(EDGE).late_frames == 1 and ledger.edge(EDGE).acks_sent == 1


def test_unknown_disposition_is_rejected() -> None:
    engine, _, _ = make_engine(KeyedFaultInjector(FaultPlan.lossless(), seed=0))
    with pytest.raises(SimulationError):
        engine.receive(0, 1, EDGE, 1, 0, lambda: "maybe")


def test_backoff_grows_per_attempt_and_jitter_is_per_link() -> None:
    policy = RetransmitPolicy(max_retries=3, ack_timeout=10.0, backoff=2.0, jitter=0.5)
    lossy = KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=0)
    engine, _, _ = make_engine(lossy, policy)
    parcel = Parcel(0, 1, EDGE, uid=1)
    timeouts = [engine.attempt(parcel)[1] for _ in range(4)]
    for attempt, timeout in enumerate(timeouts):
        base = 10.0 * 2.0**attempt
        assert base <= timeout <= base * 1.5
    # A fresh engine on the same seed replays the same per-link stream.
    again, _, _ = make_engine(lossy, policy)
    replay = Parcel(0, 1, EDGE, uid=1)
    assert [again.attempt(replay)[1] for _ in range(4)] == timeouts


def test_conservation_names_the_broken_law() -> None:
    ledger = HopLedger()
    ledger.edge(EDGE).attempts = 1
    with pytest.raises(SimulationError, match="attempts == drops_injected"):
        ledger.check_conservation()
