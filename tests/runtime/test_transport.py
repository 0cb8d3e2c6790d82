"""The per-hop ARQ: retransmission, backoff, dedup, give-up semantics.

The first cases run the event runtime's transport
(:func:`~repro.runtime.transport.scheduled_transport`) on a real
:class:`EventScheduler`; the rest hold the handed-timer contract with
no scheduler and no event loop at all, and check every ARQ decision in
isolation from any substrate: a ``put`` that hands each copy straight
to the receiver half and each surviving ACK straight back, a scripted
fault schedule, and the observer's event kinds.
"""

from __future__ import annotations

import pytest

import repro.runtime.faults as faults
from repro.core.source import SIESRecord
from repro.errors import ParameterError, SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.runtime.events import EventScheduler
from repro.runtime.faults import (
    BurstLoss,
    FaultPlan,
    KeyedFaultInjector,
    KeyedVerdict,
    LinkProfile,
    NodeOutage,
)
from repro.runtime.transport import (
    DELIVERED,
    LATE,
    Parcel,
    ReliableTransport,
    RetransmitPolicy,
    scheduled_transport,
)
from repro.wire.codecs import SIESCodec
from repro.wire.frame import HEADER_LEN

pytestmark = pytest.mark.runtime

MODULUS_BYTES = 32


def _channel() -> Channel:
    return Channel(SIESCodec(MODULUS_BYTES))


def _record(epoch: int = 1) -> SIESRecord:
    return SIESRecord(ciphertext=12345, epoch=epoch, modulus_bytes=MODULUS_BYTES)


def make_transport(
    plan: FaultPlan,
    policy: RetransmitPolicy | None = None,
    *,
    seed: int = 0,
    injector: KeyedFaultInjector | None = None,
    channel: Channel | None = None,
):
    """The runtime's driver; returns the scheduler, the driver and the
    manifest of every first copy it delivers."""
    scheduler = EventScheduler()
    delivered: list[frozenset[int]] = []
    transport = scheduled_transport(
        scheduler,
        injector or KeyedFaultInjector(plan, seed=seed),
        channel or _channel(),
        policy or RetransmitPolicy(),
        deliver=lambda receiver, epoch, psr, manifest: delivered.append(manifest),
    )
    return scheduler, transport, delivered


def _frame(epoch: int = 1) -> bytes:
    return SIESCodec(MODULUS_BYTES).encode(_record(epoch))


def send_one(transport: ReliableTransport, *, epoch: int = 1) -> Parcel:
    return transport.send(
        0, 1, EdgeClass.SOURCE_TO_AGGREGATOR, epoch, _record(epoch), frozenset({0})
    )


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
    scheduler, transport, delivered = make_transport(FaultPlan.lossless())
    parcel = send_one(transport)
    scheduler.run()
    assert delivered == [frozenset({0})]
    assert parcel.acked and not parcel.failed
    assert parcel.attempts == 1
    assert transport.ledger.total("retransmissions") == 0


def test_lossy_link_retransmits_until_delivery() -> None:
    # ~60% loss: first attempts often die, the ARQ must push through.
    plan = FaultPlan.uniform_loss(0.6, latency=1.0, jitter=0.0)
    scheduler, transport, delivered = make_transport(plan, RetransmitPolicy(max_retries=8), seed=11)
    for e in range(1, 21):
        send_one(transport, epoch=e)
    scheduler.run()
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    delivered_count = len(delivered)
    assert delivered_count >= 19  # 9 attempts at 60% loss: ~0.999^… practically all
    assert transport.ledger.retransmissions[edge] > 0
    assert transport.ledger.attempts[edge] > 20


def test_retry_budget_exhaustion_reports_failure() -> None:
    plan = FaultPlan.uniform_loss(1.0)  # the void: nothing ever arrives
    policy = RetransmitPolicy(max_retries=3, ack_timeout=5.0, jitter=0.0)
    scheduler, transport, delivered = make_transport(plan, policy)
    parcel = send_one(transport)
    scheduler.run()
    assert delivered == []
    assert parcel.failed and not parcel.acked
    assert parcel.attempts == 4  # 1 original + 3 retries
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    assert transport.ledger.gave_up[edge] == 1
    assert transport.ledger.retransmissions[edge] == 3


def test_duplicates_suppressed_at_receiver() -> None:
    plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0, jitter=0.0))
    scheduler, transport, delivered = make_transport(plan)
    send_one(transport)
    scheduler.run()
    assert delivered == [frozenset({0})]  # app sees exactly one copy
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    assert transport.ledger.duplicates_suppressed[edge] >= 1


def test_lost_ack_causes_spurious_retransmit_but_single_delivery() -> None:
    # Data direction 0->1 is clean; ACK direction 1->0 is the void.
    plan = FaultPlan.lossless()
    policy = RetransmitPolicy(max_retries=2, ack_timeout=5.0, jitter=0.0)
    injector = KeyedFaultInjector(plan, seed=0)
    keyed = injector.data_verdict

    def acks_lost(*coordinate) -> KeyedVerdict:
        return keyed(*coordinate)._replace(ack_lost=True)

    injector.data_verdict = acks_lost  # type: ignore[method-assign]
    scheduler, transport, delivered = make_transport(plan, policy, injector=injector)
    parcel = send_one(transport)
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
    scheduler, transport, delivered = make_transport(plan, policy)
    parcel = send_one(transport)
    scheduler.run()
    assert delivered == []
    assert parcel.failed and not parcel.acked
    assert transport.ledger.gave_up[EdgeClass.SOURCE_TO_AGGREGATOR] == 1


def test_channel_interceptor_sees_every_physical_attempt() -> None:
    """The frame interceptors run per attempt at the sender, lost or not;
    the PSR interceptors only on a first copy that lands."""
    plan = FaultPlan.uniform_loss(1.0)
    policy = RetransmitPolicy(max_retries=4, ack_timeout=2.0, jitter=0.0)
    channel = _channel()
    frames: list[int] = []
    seen: list[int] = []
    channel.add_frame_interceptor(lambda f, e: (frames.append(len(f)), f)[1])
    channel.add_interceptor(lambda m, e: (seen.append(m.epoch), m)[1])
    scheduler, transport, _ = make_transport(plan, policy, channel=channel)
    send_one(transport, epoch=7)
    scheduler.run()
    # The adversary saw the original and all 4 retransmits on the air...
    assert frames == [MODULUS_BYTES + HEADER_LEN] * 5
    # ...and no copy landed, so nothing was decoded.
    assert seen == []
    sa = channel.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert sa.messages == sa.attempts == 5  # channel and transport share one ledger
    assert transport.ledger is channel.ledger

    # Every copy of every attempt lands, and every ACK is lost: five
    # attempts, ten copies, one decode.
    injector = KeyedFaultInjector(FaultPlan.lossless(), seed=0)
    keyed = injector.data_verdict

    def doubled_acks_lost(*coordinate) -> KeyedVerdict:
        return keyed(*coordinate)._replace(copies=2, latencies=(1.0, 1.5), ack_lost=True)

    injector.data_verdict = doubled_acks_lost  # type: ignore[method-assign]
    frames.clear()
    scheduler, transport, delivered = make_transport(
        FaultPlan.lossless(), policy, injector=injector, channel=channel
    )
    send_one(transport, epoch=7)
    scheduler.run()
    assert len(frames) == 5 and seen == [7] and delivered == [frozenset({0})]
    assert (sa.frames_received, sa.duplicates_suppressed) == (10, 9)


def test_adversarial_drop_looks_like_loss_and_triggers_retransmit() -> None:
    """A frame dropped on the air is loss: no ACK, so the sender
    retransmits.  A first copy dropped after it landed was delivered by
    the transport: it is ACKed, and counted as a decode failure."""
    policy = RetransmitPolicy(max_retries=4, ack_timeout=3.0, jitter=0.0)
    channel = _channel()
    # Drop the first two physical attempts, then let traffic through.
    state = {"count": 0}

    def drop_twice(frame, edge):
        state["count"] += 1
        return None if state["count"] <= 2 else frame

    channel.add_frame_interceptor(drop_twice)
    scheduler, transport, delivered = make_transport(
        FaultPlan.lossless(), policy, channel=channel
    )
    send_one(transport)
    scheduler.run()
    assert delivered == [frozenset({0})]
    sa = transport.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert (sa.retransmissions, sa.drops_channel, sa.decode_failures) == (2, 2, 0)

    channel = _channel()
    channel.add_interceptor(lambda message, edge: None)
    scheduler, transport, delivered = make_transport(
        FaultPlan.lossless(), policy, channel=channel
    )
    parcel = send_one(transport)
    scheduler.run()
    assert delivered == [] and parcel.acked and parcel.attempts == 1
    sa = transport.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert (sa.retransmissions, sa.drops_channel, sa.decode_failures) == (0, 0, 1)
    assert (sa.acks_sent, sa.channel_decode_failures) == (1, 0)
    transport.ledger.check_conservation()


# ----------------------------------------------------------------------
# The handed-timer contract, with no scheduler and no event loop
# ----------------------------------------------------------------------

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR


class FakeTimer:
    """A list-backed ``call_later``: nothing fires until a test fires it."""

    def __init__(self) -> None:
        self.handles: list[FakeHandle] = []

    def call_later(self, delay: float, fn) -> "FakeHandle":
        handle = FakeHandle(delay, fn)
        self.handles.append(handle)
        return handle

    def armed(self) -> list["FakeHandle"]:
        return [h for h in self.handles if not h.cancelled and not h.fired]

    def fire_next(self) -> None:
        handle = self.armed()[0]
        handle.fired = True
        handle.fn()


class FakeHandle:
    def __init__(self, delay: float, fn) -> None:
        self.delay = delay
        self.fn = fn
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True


def contract_transport(
    plan: FaultPlan,
    policy: RetransmitPolicy | None = None,
    *,
    injector: KeyedFaultInjector | None = None,
    channel: Channel | None = None,
    deliver=lambda *copy: None,
    observer=None,
    echo: bool = False,
):
    """The transport on a :class:`FakeTimer`, with a recording ``put`` and
    ``on_finished``.

    With *echo*, ``put`` also hands every copy to the receiver half at
    once and every ACK that survives straight back to the sender.
    """
    timer = FakeTimer()
    channel = channel or _channel()
    puts: list[tuple[int, int]] = []
    finished: list = []

    def put(parcel: Parcel, frame: bytes, attempt: int, verdict: KeyedVerdict) -> None:
        puts.append((attempt, verdict.copies))
        for _ in range(verdict.copies if echo else 0):
            sender, receiver, edge, uid = parcel.sender, parcel.receiver, parcel.edge, parcel.uid
            if transport.receive(
                sender, receiver, edge, uid, attempt, frame, parcel.manifest, verdict
            ):
                transport.ack(sender, edge, uid)

    transport = ReliableTransport(
        injector or KeyedFaultInjector(plan, seed=0),
        policy or RetransmitPolicy(max_retries=2, ack_timeout=5.0, jitter=0.0),
        channel,
        now=lambda: 0.0,
        call_later=timer.call_later,
        put=put,
        deliver=deliver,
        on_finished=finished.append,
        observer=observer,
    )
    return timer, transport, puts, finished


def test_an_ack_before_the_timeout_cancels_the_timer() -> None:
    timer, transport, puts, finished = contract_transport(FaultPlan.lossless())
    parcel = send_one(transport)
    assert puts == [(0, 1)]
    [handle] = timer.handles
    assert handle.delay == 5.0 and not handle.cancelled
    transport.ack(0, EDGE, parcel.uid)
    assert handle.cancelled and timer.armed() == []
    assert parcel.acked and not parcel.failed
    assert finished == [parcel]
    assert transport.ledger.edge(EDGE).acks_received == 1


def test_a_give_up_finishes_the_parcel_exactly_once() -> None:
    timer, transport, puts, finished = contract_transport(FaultPlan.uniform_loss(1.0))
    parcel = send_one(transport)
    while timer.armed():
        timer.fire_next()
    assert parcel.failed and not parcel.acked
    assert parcel.attempts == 3 and puts == []
    assert [h.delay for h in timer.handles] == [5.0, 10.0, 20.0]
    assert finished == [parcel]
    assert transport.ledger.edge(EDGE).gave_up == 1


@pytest.mark.parametrize("stop", ["ack", "give_up"])
def test_an_ack_for_a_stopped_parcel_is_only_counted(stop: str) -> None:
    plan = FaultPlan.lossless() if stop == "ack" else FaultPlan.uniform_loss(1.0)
    timer, transport, puts, finished = contract_transport(plan)
    parcel = send_one(transport)
    if stop == "ack":
        transport.ack(0, EDGE, parcel.uid)
    while timer.armed():
        timer.fire_next()
    before = transport.ledger.edge(EDGE).as_dict()
    state = (parcel.acked, parcel.failed, parcel.attempts, len(timer.handles), list(puts))
    transport.ack(0, EDGE, parcel.uid)
    after = transport.ledger.edge(EDGE).as_dict()
    assert after.pop("acks_received") == before.pop("acks_received") + 1
    assert after == before
    assert (parcel.acked, parcel.failed, parcel.attempts, len(timer.handles), puts) == state
    assert finished == [parcel]


def test_an_expiry_that_runs_after_the_ack_changes_nothing() -> None:
    """The cluster decides a timeout a few loop iterations after it fires,
    so its ACK may be handled in between: the late expiry is a no-op."""
    timer, transport, puts, finished = contract_transport(FaultPlan.lossless())
    parcel = send_one(transport)
    [handle] = timer.handles
    transport.ack(0, EDGE, parcel.uid)
    handle.fn()
    assert parcel.acked and not parcel.failed and parcel.attempts == 1
    assert len(timer.handles) == 1 and puts == [(0, 1)]
    assert finished == [parcel]
    assert transport.ledger.edge(EDGE).gave_up == 0


# ----------------------------------------------------------------------
# Every ARQ decision, one copy and one ACK at a time
# ----------------------------------------------------------------------

POLICY = RetransmitPolicy(max_retries=3, ack_timeout=5.0, backoff=2.0, jitter=0.0)


class ScriptedInjector(KeyedFaultInjector):
    """Keyed oracle whose data and ACK fates follow a per-attempt script."""

    def __init__(self, data: list[int], acks_lost: list[bool]) -> None:
        super().__init__(FaultPlan.lossless(), seed=0)
        self.data = data
        self.acks_lost = acks_lost

    def data_verdict(self, sender, receiver, edge, uid, attempt) -> KeyedVerdict:
        copies = self.data[attempt]
        return KeyedVerdict(
            lost=copies == 0, copies=copies, latencies=(0.0, 0.0),
            ack_lost=self.acks_lost[attempt], ack_latency=0.0, jitter=0.0,
        )


def echo_transport(
    injector: KeyedFaultInjector,
    policy: RetransmitPolicy = POLICY,
    *,
    disposition: str = DELIVERED,
    channel: Channel | None = None,
):
    """An echoing contract transport on *injector* whose ``deliver``
    answers *disposition*; returns the timer, the transport, the
    observer's events and the first-copy dispositions in order."""
    events: list[tuple[str, dict]] = []
    dispositions: list[str] = []

    def deliver(*copy) -> str:
        dispositions.append(disposition)
        return disposition

    timer, transport, _, _ = contract_transport(
        FaultPlan.lossless(), policy, injector=injector, channel=channel, deliver=deliver,
        observer=lambda kind, attrs: events.append((kind, attrs)), echo=True,
    )
    return timer, transport, events, dispositions


def drive(timer: FakeTimer, transport: ReliableTransport, *, epoch: int = 1) -> Parcel:
    """Send one parcel and fire its timeouts until it stops."""
    parcel = send_one(transport, epoch=epoch)
    while timer.armed():
        timer.fire_next()
    return parcel


def kinds(events: list[tuple[str, dict]]) -> list[str]:
    return [kind for kind, _ in events]


def test_lossless_link_delivers_on_the_first_attempt() -> None:
    timer, transport, events, delivered = echo_transport(
        KeyedFaultInjector(FaultPlan.lossless(), seed=0)
    )
    parcel = drive(timer, transport)
    assert delivered == [DELIVERED]
    assert parcel.acked and not parcel.failed and parcel.attempts == 1
    assert kinds(events) == ["attempt", "deliver"]
    c = transport.ledger.edge(EDGE)
    assert (c.attempts, c.frames_sent, c.delivered, c.acks_sent, c.acks_received) == (1, 1, 1, 1, 1)
    transport.ledger.check_conservation()


def test_lossy_link_retransmits_until_it_delivers() -> None:
    timer, transport, events, delivered = echo_transport(ScriptedInjector([0, 0, 1, 1], [False] * 4))
    parcel = drive(timer, transport, epoch=4)
    assert delivered == [DELIVERED]
    assert parcel.acked and parcel.attempts == 3
    assert kinds(events) == ["attempt", "drop", "attempt", "drop", "attempt", "deliver"]
    assert all(attrs["cause"] == "link" for kind, attrs in events if kind == "drop")
    c = transport.ledger.edge(EDGE)
    assert (c.retransmissions, c.drops_injected, c.delivered) == (2, 2, 1)
    transport.ledger.check_conservation()


def test_sender_gives_up_after_max_attempts() -> None:
    timer, transport, events, delivered = echo_transport(
        KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=0)
    )
    parcel = drive(timer, transport)
    assert delivered == []
    assert parcel.failed and not parcel.acked
    assert parcel.attempts == POLICY.max_attempts
    assert kinds(events)[-1] == "give_up"
    assert events[-1][1]["attempt"] == POLICY.max_attempts - 1
    c = transport.ledger.edge(EDGE)
    assert (c.attempts, c.drops_injected, c.gave_up) == (POLICY.max_attempts,) * 2 + (1,)
    transport.ledger.check_conservation()


def test_lost_ack_triggers_a_spurious_retransmit_but_one_delivery() -> None:
    timer, transport, events, delivered = echo_transport(
        ScriptedInjector([1, 1, 1, 1], [True, False, False, False])
    )
    parcel = drive(timer, transport, epoch=2)
    assert delivered == [DELIVERED]  # the application saw it once
    assert parcel.acked and parcel.attempts == 2
    assert kinds(events) == ["attempt", "deliver", "ack_lost", "attempt", "duplicate"]
    c = transport.ledger.edge(EDGE)
    assert (c.delivered, c.duplicates_suppressed, c.acks_dropped, c.acks_sent) == (1, 1, 1, 1)
    transport.ledger.check_conservation()


def test_duplicate_is_suppressed_but_still_acked() -> None:
    timer, transport, events, delivered = echo_transport(ScriptedInjector([2], [False, False]))
    drive(timer, transport, epoch=3)
    assert delivered == [DELIVERED]
    assert kinds(events) == ["attempt", "deliver", "duplicate"]
    c = transport.ledger.edge(EDGE)
    assert (c.frames_sent, c.dup_copies, c.duplicates_suppressed) == (2, 1, 1)
    assert c.acks_sent == c.acks_received == 2  # every copy is ACKed
    transport.ledger.check_conservation()


def test_burst_fires_only_inside_its_epoch_window() -> None:
    plan = FaultPlan(bursts=(BurstLoss(first_epoch=2, last_epoch=3, loss_rate=1.0),))
    timer, transport, _, delivered = echo_transport(KeyedFaultInjector(plan, seed=0))
    outcome = {}
    for epoch in range(1, 6):
        before = len(delivered)
        drive(timer, transport, epoch=epoch)
        outcome[epoch] = len(delivered) > before
    assert outcome == {1: True, 2: False, 3: False, 4: True, 5: True}
    assert transport.ledger.edge(EDGE).gave_up == 2
    transport.ledger.check_conservation()


def test_channel_swallowed_attempt_is_counted_apart_from_the_schedule() -> None:
    channel = _channel()
    channel.add_frame_interceptor(lambda frame, edge: None)
    _, transport, events, delivered = echo_transport(
        KeyedFaultInjector(FaultPlan.lossless(), seed=0), channel=channel
    )
    send_one(transport)
    assert delivered == [] and transport.ledger.edge(EDGE).frames_sent == 0
    assert kinds(events) == ["attempt", "drop"] and events[-1][1]["cause"] == "channel"
    assert transport.ledger.edge(EDGE).drops_channel == 1
    assert transport.ledger.edge(EDGE).drops_injected == 0
    transport.ledger.check_conservation()


def test_late_first_copy_is_counted_and_acked() -> None:
    injector = KeyedFaultInjector(FaultPlan.lossless(), seed=0)
    _, transport, events, _ = echo_transport(injector, disposition=LATE)
    verdict = injector.data_verdict(0, 1, EDGE, 1, 0)
    assert transport.receive(0, 1, EDGE, 1, 0, _frame(), frozenset({0}), verdict)
    assert kinds(events) == ["late"]
    assert transport.ledger.edge(EDGE).late_frames == 1
    assert transport.ledger.edge(EDGE).acks_sent == 1


def test_unknown_disposition_is_rejected() -> None:
    injector = KeyedFaultInjector(FaultPlan.lossless(), seed=0)
    _, transport, _, _ = echo_transport(injector, disposition="maybe")
    verdict = injector.data_verdict(0, 1, EDGE, 1, 0)
    with pytest.raises(SimulationError):
        transport.receive(0, 1, EDGE, 1, 0, _frame(), frozenset({0}), verdict)


def test_an_ack_timeout_is_a_pure_function_of_its_coordinate() -> None:
    """Two pipelined epochs on one link get the same ACK timeouts in
    either send order: the jitter is keyed by the attempt, not drawn
    from a stream the link's other parcels advance."""
    policy = RetransmitPolicy(max_retries=3, ack_timeout=10.0, backoff=2.0, jitter=0.5)
    lossy = KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=0)

    def timeouts(order: tuple[int, int]) -> dict[tuple[int, int], float]:
        timer, transport, events, _ = echo_transport(lossy, policy)
        for epoch in order:
            send_one(transport, epoch=epoch)
        while timer.armed():
            timer.fire_next()
        attempts = [(attrs["uid"], attrs["attempt"]) for kind, attrs in events if kind == "attempt"]
        return dict(zip(attempts, (handle.delay for handle in timer.handles), strict=True))

    forward, backward = timeouts((1, 2)), timeouts((2, 1))
    assert len(forward) == 8
    assert forward == backward
    for (uid, attempt), timeout in forward.items():
        base = 10.0 * 2.0**attempt
        jitter = lossy.data_verdict(0, 1, EDGE, uid, attempt).jitter
        assert timeout == policy.timeout_for(attempt, jitter)
        assert base <= timeout < base * 1.5
    assert forward[(1, 0)] != forward[(2, 0)]


def test_the_runtime_hashes_once_per_attempt(monkeypatch: pytest.MonkeyPatch) -> None:
    """One keyed digest per attempt: the arrival and ACK events reuse the
    verdict their attempt drew."""
    digests = []
    blake2b = faults.blake2b

    def counted(label: bytes, **params):
        digests.append(label)
        return blake2b(label, **params)

    monkeypatch.setattr(faults, "blake2b", counted)
    plan = FaultPlan.uniform_loss(0.4, duplicate_rate=0.3, latency=1.0, jitter=1.0)
    scheduler, transport, _ = make_transport(plan, RetransmitPolicy(max_retries=6), seed=3)
    for epoch in range(1, 31):
        send_one(transport, epoch=epoch)
    scheduler.run()
    c = transport.ledger.edge(EDGE)
    assert c.retransmissions and c.dup_copies and c.acks_dropped  # every path ran
    assert len(digests) == c.attempts == len(set(digests))
    transport.ledger.check_conservation()
