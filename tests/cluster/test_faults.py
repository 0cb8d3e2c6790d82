"""The keyed fault schedule: pure, order-independent, oracle-replayable."""

from __future__ import annotations

import random

from repro.network.channel import EdgeClass
from repro.runtime.faults import (
    BurstLoss,
    FaultPlan,
    KeyedFaultInjector,
    LinkProfile,
    NodeOutage,
)
from repro.runtime.transport import RetransmitPolicy, parcel_fate

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR
PLAN = FaultPlan.uniform_loss(0.3)
POLICY = RetransmitPolicy(max_retries=4, ack_timeout=0.01)

# A grid of attempt coordinates to sweep (sender, receiver, uid, attempt).
COORDS = [
    (s, r, uid, attempt)
    for s in (0, 7)
    for r in (1, 63)
    for uid in (1, 2, 900)
    for attempt in range(3)
]


class TestDeterminism:
    def test_verdict_is_a_pure_function_of_the_coordinate(self) -> None:
        """Same seed, any call order / interleaving → same verdicts."""
        forward = KeyedFaultInjector(PLAN, seed=11)
        shuffled = KeyedFaultInjector(PLAN, seed=11)
        expected = {c: forward.data_verdict(c[0], c[1], EDGE, c[2], c[3]) for c in COORDS}
        order = list(COORDS)
        random.Random(4).shuffle(order)
        for c in order:
            assert shuffled.data_verdict(c[0], c[1], EDGE, c[2], c[3]) == expected[c]
        # Repeated queries of the same coordinate never advance a stream.
        for c in COORDS:
            assert forward.data_verdict(c[0], c[1], EDGE, c[2], c[3]) == expected[c]

    def test_different_seeds_give_different_schedules(self) -> None:
        a = KeyedFaultInjector(PLAN, seed=1)
        b = KeyedFaultInjector(PLAN, seed=2)
        assert any(
            a.data_verdict(c[0], c[1], EDGE, c[2], c[3])
            != b.data_verdict(c[0], c[1], EDGE, c[2], c[3])
            for c in COORDS
        )

    def test_ack_draw_is_independent_of_data_draw(self) -> None:
        """A lost packet and a lost ACK must be uncorrelated (distinct
        keyed streams), so the two verdict sequences cannot coincide."""
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(0.5), seed=3)
        data = [injector.data_verdict(c[0], c[1], EDGE, c[2], c[3]).lost for c in COORDS]
        acks = [injector.ack_verdict(c[0], c[1], EDGE, c[2], c[3]) for c in COORDS]
        assert data != acks


class TestRates:
    def test_lossless_plan_never_drops(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.lossless(), seed=5)
        for c in COORDS:
            verdict = injector.data_verdict(c[0], c[1], EDGE, c[2], c[3])
            assert (verdict.lost, verdict.copies) == (False, 1)
            assert injector.ack_verdict(c[0], c[1], EDGE, c[2], c[3]) is False

    def test_total_loss_always_drops(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=5)
        for c in COORDS:
            verdict = injector.data_verdict(c[0], c[1], EDGE, c[2], c[3])
            assert verdict.lost and verdict.copies == 0

    def test_duplicate_rate_one_always_writes_two_copies(self) -> None:
        plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0))
        injector = KeyedFaultInjector(plan, seed=5)
        for c in COORDS:
            assert injector.data_verdict(c[0], c[1], EDGE, c[2], c[3]).copies == 2

    def test_empirical_loss_rate_tracks_the_profile(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(0.2), seed=9)
        lost = sum(
            injector.data_verdict(0, 1, EDGE, uid, 0).lost for uid in range(4000)
        )
        assert 0.17 < lost / 4000 < 0.23

    def test_per_edge_profile_overrides(self) -> None:
        plan = FaultPlan(
            default_profile=LinkProfile(loss_rate=0.0),
            profiles={EdgeClass.AGGREGATOR_TO_QUERIER: LinkProfile(loss_rate=1.0)},
        )
        injector = KeyedFaultInjector(plan, seed=5)
        assert not injector.data_verdict(0, 1, EDGE, 1, 0).lost
        assert injector.data_verdict(0, -1, EdgeClass.AGGREGATOR_TO_QUERIER, 1, 0).lost


class TestEpochWindowedFeatures:
    def test_bursts_apply_inside_their_epoch_window(self) -> None:
        plan = FaultPlan(bursts=(BurstLoss(first_epoch=2, last_epoch=3, edge_class=EDGE),))
        injector = KeyedFaultInjector(plan, seed=0)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 1) == (True, 1)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 2) == (False, POLICY.max_attempts)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 4) == (True, 1)
        # Other edge classes never see the burst.
        other = EdgeClass.AGGREGATOR_TO_QUERIER
        assert parcel_fate(injector, POLICY, 0, 1, other, 2) == (True, 1)

    def test_outages_swallow_every_attempt_to_the_down_node(self) -> None:
        plan = FaultPlan(outages=(NodeOutage(node_id=3, first_epoch=1, last_epoch=5),))
        injector = KeyedFaultInjector(plan, seed=0)
        assert parcel_fate(injector, POLICY, 0, 3, EDGE, 5) == (False, POLICY.max_attempts)
        assert parcel_fate(injector, POLICY, 0, 3, EDGE, 6) == (True, 1)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 5) == (True, 1)


class TestParcelFate:
    def test_lossless_delivers_first_attempt(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.lossless(), seed=0)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 1) == (True, 1)

    def test_total_loss_exhausts_the_budget(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=0)
        assert parcel_fate(injector, POLICY, 0, 1, EDGE, 1) == (False, POLICY.max_attempts)

    def test_fate_matches_a_manual_replay(self) -> None:
        """parcel_fate is definitionally the ARQ replayed against the
        schedule: an attempt delivers iff not lost, and the sender stops
        at the first attempt whose ACK also survives."""
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(0.45), seed=13)
        oracle = KeyedFaultInjector(FaultPlan.uniform_loss(0.45), seed=13)
        for uid in range(300):
            delivered, attempts = parcel_fate(injector, POLICY, 2, 5, EDGE, uid)
            assert 1 <= attempts <= POLICY.max_attempts
            manual_delivered = False
            manual_attempts = POLICY.max_attempts
            for attempt in range(POLICY.max_attempts):
                if not oracle.data_verdict(2, 5, EDGE, uid, attempt).lost:
                    manual_delivered = True
                    if not oracle.ack_verdict(2, 5, EDGE, uid, attempt):
                        manual_attempts = attempt + 1
                        break
            assert (delivered, attempts) == (manual_delivered, manual_attempts)

    def test_delivery_rate_beats_single_attempt_loss(self) -> None:
        """Five attempts at 30% loss → ~(1 - 0.3^5) of parcels deliver."""
        injector = KeyedFaultInjector(PLAN, seed=17)
        delivered = sum(
            parcel_fate(injector, POLICY, 0, 1, EDGE, uid)[0] for uid in range(1500)
        )
        assert delivered / 1500 > 0.99
