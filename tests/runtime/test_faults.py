"""Fault model: seeded determinism, burst windows, churn, rate validation."""

from __future__ import annotations

import hashlib

import pytest

import repro.runtime.faults as faults
from repro.errors import ParameterError
from repro.network.channel import EdgeClass
from repro.runtime.faults import (
    BurstLoss,
    FaultPlan,
    KeyedFaultInjector,
    LinkProfile,
    NodeOutage,
)

EDGE = EdgeClass.SOURCE_TO_AGGREGATOR


def reference_uniforms(
    seed: int, sender: int, receiver: int, uid: int, attempt: int
) -> list[float]:
    """Schedule v3 written out from its definition, sharing no code with it:
    the seven slots of one coordinate's keyed digest."""
    key = hashlib.sha256(f"{seed}/fault-schedule-v3".encode()).digest()
    label = f"{sender}->{receiver}/{uid}/{attempt}".encode()
    digest = hashlib.blake2b(label, key=key, digest_size=56).digest()
    words = [int.from_bytes(digest[8 * i : 8 * i + 8], "big") for i in range(7)]
    return [(word >> 11) / 2**53 for word in words]


def test_profile_validation() -> None:
    with pytest.raises(ParameterError):
        LinkProfile(loss_rate=1.5)
    with pytest.raises(ParameterError):
        LinkProfile(duplicate_rate=-0.1)
    with pytest.raises(ParameterError):
        LinkProfile(latency=-1.0)
    with pytest.raises(ParameterError):
        BurstLoss(first_epoch=5, last_epoch=4)
    with pytest.raises(ParameterError):
        NodeOutage(node_id=1, first_epoch=3, last_epoch=2)


def test_seeded_verdicts_are_deterministic() -> None:
    plan = FaultPlan.uniform_loss(0.4, latency=2.0, jitter=1.0)

    def verdicts(seed: int):
        injector = KeyedFaultInjector(plan, seed=seed)
        out = []
        for uid in range(50):
            verdict = injector.data_verdict(0, 1, EDGE, uid, 0)
            latencies = injector.data_latencies(0, 1, EDGE, uid, 0, verdict.copies)
            out.append((verdict.lost, latencies))
        return out

    assert verdicts(7) == verdicts(7)
    assert verdicts(7) != verdicts(8)


def test_edges_draw_from_independent_streams() -> None:
    plan = FaultPlan.uniform_loss(0.5)
    injector = KeyedFaultInjector(plan, seed=3)
    a = [injector.data_verdict(0, 1, EDGE, uid, 0).lost for uid in range(40)]
    b = [injector.data_verdict(2, 1, EDGE, uid, 0).lost for uid in range(40)]
    assert a != b  # distinct (sender, receiver) pairs see distinct loss realizations


def test_lossless_plan_never_drops() -> None:
    injector = KeyedFaultInjector(FaultPlan.lossless(), seed=1)
    edge = EdgeClass.AGGREGATOR_TO_QUERIER
    for uid in range(100):
        verdict = injector.data_verdict(0, 1, edge, uid, 0)
        assert not verdict.lost
        assert injector.data_latencies(0, 1, edge, uid, 0, verdict.copies) == (0.0,)


def test_burst_loss_window() -> None:
    plan = FaultPlan(bursts=(BurstLoss(first_epoch=10, last_epoch=19, loss_rate=1.0),))
    assert plan.loss_rate(EDGE, 9) == 0.0
    assert plan.loss_rate(EDGE, 10) == 1.0
    assert plan.loss_rate(EDGE, 19) == 1.0
    assert plan.loss_rate(EDGE, 20) == 0.0
    injector = KeyedFaultInjector(plan, seed=0)
    assert injector.data_verdict(0, 1, EDGE, 15, 0).lost
    assert injector.ack_verdict(0, 1, EDGE, 15, 0)  # ACKs ride the same burst
    assert not injector.data_verdict(0, 1, EDGE, 20, 0).lost


def test_burst_scoped_to_edge_class() -> None:
    plan = FaultPlan(
        bursts=(
            BurstLoss(
                first_epoch=0, last_epoch=100, loss_rate=1.0,
                edge_class=EdgeClass.AGGREGATOR_TO_QUERIER,
            ),
        )
    )
    assert plan.loss_rate(EdgeClass.AGGREGATOR_TO_QUERIER, 50) == 1.0
    assert plan.loss_rate(EDGE, 50) == 0.0


def test_loss_rates_compose_independently() -> None:
    plan = FaultPlan(
        default_profile=LinkProfile(loss_rate=0.5),
        bursts=(BurstLoss(first_epoch=0, last_epoch=10, loss_rate=0.5),),
    )
    assert plan.loss_rate(EDGE, 5) == pytest.approx(0.75)


def test_node_outage_and_recovery() -> None:
    plan = FaultPlan(outages=(NodeOutage(node_id=4, first_epoch=10, last_epoch=29),))
    assert not plan.node_down(4, 9)
    assert plan.node_down(4, 10)
    assert plan.node_down(4, 29)
    assert not plan.node_down(4, 30)
    assert not plan.node_down(5, 15)
    injector = KeyedFaultInjector(plan, seed=0)
    # Transmissions *to* a downed node are lost regardless of link luck.
    assert injector.data_verdict(0, 4, EDGE, 15, 0).lost
    assert not injector.data_verdict(0, 4, EDGE, 30, 0).lost
    # ...and so are ACKs travelling back to it.
    assert injector.ack_verdict(4, 9, EDGE, 15, 0)


def test_duplication_yields_extra_copies() -> None:
    plan = FaultPlan(default_profile=LinkProfile(duplicate_rate=1.0, jitter=0.0))
    injector = KeyedFaultInjector(plan, seed=0)
    verdict = injector.data_verdict(0, 1, EDGE, 1, 0)
    assert verdict.copies == 2
    assert len(injector.data_latencies(0, 1, EDGE, 1, 0, verdict.copies)) == 2


def test_verdict_outcomes_do_not_shift_the_stream() -> None:
    """A burst changing outcomes must not perturb any other slot."""
    quiet = KeyedFaultInjector(FaultPlan.uniform_loss(0.3, jitter=1.0), seed=5)
    bursty = KeyedFaultInjector(
        FaultPlan(
            default_profile=LinkProfile(loss_rate=0.3, jitter=1.0),
            bursts=(BurstLoss(first_epoch=0, last_epoch=4, loss_rate=1.0),),
        ),
        seed=5,
    )
    for uid in range(5):
        for attempt in range(3):
            lossy = bursty.data_verdict(0, 1, EDGE, uid, attempt)
            assert lossy.lost and lossy.ack_lost
            # Latencies and jitter never depend on the loss verdicts.
            plain = quiet.data_verdict(0, 1, EDGE, uid, attempt)
            assert lossy.latencies == plain.latencies
            assert lossy.ack_latency == plain.ack_latency
            assert lossy.jitter == plain.jitter
    # After the burst window the two schedules are identical.
    for uid in range(5, 10):
        for attempt in range(3):
            assert quiet.data_verdict(0, 1, EDGE, uid, attempt) == bursty.data_verdict(
                0, 1, EDGE, uid, attempt
            )


class TestKeyedFaultInjector:
    """The keyed oracle both substrates consult."""

    def test_matches_the_cluster_injector_draw_for_draw(self) -> None:
        """Verdicts are schedule v3's keyed digests, replayed here by an
        independent reference: BLAKE2b keyed by SHA-256 of the seed, one
        digest per coordinate, seven slots in a fixed order."""
        plan = FaultPlan.uniform_loss(0.3, duplicate_rate=0.1, latency=1.0, jitter=2.0)
        keyed = KeyedFaultInjector(plan, seed=11)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        for uid in (1, 2, 9, 900):
            for attempt in range(3):
                u_loss, u_dup, u_first, u_second, u_ack, u_ack_lat, u_jitter = (
                    reference_uniforms(11, 0, 1, uid, attempt)
                )
                verdict = keyed.data_verdict(0, 1, edge, uid, attempt)
                assert verdict.lost == (u_loss < 0.3)
                assert verdict.copies == (0 if verdict.lost else 2 if u_dup < 0.1 else 1)
                assert verdict.latencies == (1.0 + 2.0 * u_first, 1.0 + 2.0 * u_second)
                assert verdict.ack_lost == (u_ack < 0.3)
                assert verdict.ack_latency == 1.0 + 2.0 * u_ack_lat
                assert verdict.jitter == u_jitter
                # The three views read the same digest.
                assert keyed.ack_verdict(0, 1, edge, uid, attempt) == verdict.ack_lost
                assert keyed.data_latencies(0, 1, edge, uid, attempt, 2) == verdict.latencies
                assert keyed.ack_latency(0, 1, edge, uid, attempt) == verdict.ack_latency

    def test_golden_schedule_v3(self) -> None:
        """Literal verdicts of seed 11: any re-randomization of the keyed
        schedule must fail here, loudly, and ship as a new version."""
        plan = FaultPlan.uniform_loss(0.3, duplicate_rate=0.1)
        keyed = KeyedFaultInjector(plan, seed=11)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        observed = []
        for uid in range(7, 17):
            verdict = keyed.data_verdict(0, 1, edge, uid, 0)
            observed.append((verdict.lost, verdict.copies, verdict.ack_lost, verdict.jitter))
        assert observed == [
            (False, 2, True, 0.6305885486562122),
            (False, 1, False, 0.0936710430723896),
            (True, 0, True, 0.35636277474575184),
            (False, 1, False, 0.3483033033116175),
            (False, 1, True, 0.6525205697891548),
            (False, 1, False, 0.6628520265486864),
            (False, 1, False, 0.005527278317222772),
            (False, 1, False, 0.4233688386829002),
            (True, 0, False, 0.962107522712357),
            (False, 2, False, 0.40486211413893136),
        ]
        raw = KeyedFaultInjector(FaultPlan.uniform_loss(0.0, latency=0.0, jitter=1.0), seed=11)
        verdict = raw.data_verdict(0, 1, edge, 1, 0)
        assert verdict.latencies == (0.42138441825136863, 0.8912799749311338)
        assert verdict.ack_latency == 0.7571843980733458
        assert verdict.jitter == 0.9223721017471272

    def test_latency_draws_are_keyed_and_profile_bounded(self) -> None:
        plan = FaultPlan.uniform_loss(0.0, latency=2.0, jitter=0.5)
        keyed = KeyedFaultInjector(plan, seed=3)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        first = keyed.data_latencies(0, 1, edge, 7, 0, 2)
        again = keyed.data_latencies(0, 1, edge, 7, 0, 2)
        assert first == again  # pure function of the coordinate
        assert all(2.0 <= lat <= 2.5 for lat in first)
        assert 2.0 <= keyed.ack_latency(0, 1, edge, 7, 0) <= 2.5
        # Latency draws must not perturb the loss/duplication streams.
        assert keyed.data_verdict(0, 1, edge, 7, 0) == keyed.data_verdict(0, 1, edge, 7, 0)

    def test_epoch_windows_fold_into_the_threshold(self) -> None:
        """Bursts and outages draw nothing extra: outside their windows
        (and for a zero-rate burst inside them) the schedule is the
        plain plan's, bit for bit."""
        base = FaultPlan.uniform_loss(0.35)
        windowed = FaultPlan(
            default_profile=base.default_profile,
            bursts=(BurstLoss(first_epoch=1, last_epoch=3, loss_rate=0.0),),
            outages=(NodeOutage(node_id=5, first_epoch=2, last_epoch=2),),
        )
        assert windowed.loss_rate(EDGE, 2) == base.loss_rate(EDGE, 2) == 0.35
        plain = KeyedFaultInjector(base, seed=9)
        keyed = KeyedFaultInjector(windowed, seed=9)
        for uid in range(1, 6):
            for attempt in range(4):
                assert keyed.data_verdict(0, 1, EDGE, uid, attempt) == plain.data_verdict(
                    0, 1, EDGE, uid, attempt
                )
                assert keyed.ack_verdict(0, 1, EDGE, uid, attempt) == plain.ack_verdict(
                    0, 1, EDGE, uid, attempt
                )
        assert keyed.data_verdict(0, 5, EDGE, 2, 0).lost


def _coordinates(count: int):
    """*count* distinct attempt coordinates ``(sender, receiver, uid, attempt)``."""
    per_link = count // 20
    for sender in range(10):
        for receiver in (100, 101):
            for i in range(per_link):
                yield sender, receiver, i // 4, i % 4


class TestScheduleV2Properties:
    """Statistical and boundary properties of the keyed digests, held
    since schedule v2 and kept by v3."""

    COORDINATES = 20_000

    def test_uniforms_lie_in_the_unit_interval(self) -> None:
        raw = KeyedFaultInjector(FaultPlan.uniform_loss(0.0, latency=0.0, jitter=1.0), seed=4)
        for sender, receiver, uid, attempt in _coordinates(5_000):
            draws = raw.data_latencies(sender, receiver, EDGE, uid, attempt, 2)
            draws += (raw.ack_latency(sender, receiver, EDGE, uid, attempt),)
            assert all(0.0 <= u < 1.0 for u in draws)
        # The loss uniform sits below every threshold of 1.0 and above none of 0.0.
        never = KeyedFaultInjector(FaultPlan.uniform_loss(0.0), seed=4)
        always = KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=4)
        for sender, receiver, uid, attempt in _coordinates(self.COORDINATES):
            assert not never.data_verdict(sender, receiver, EDGE, uid, attempt).lost
            assert always.data_verdict(sender, receiver, EDGE, uid, attempt).lost
            assert always.ack_verdict(sender, receiver, EDGE, uid, attempt)

    def test_an_all_ones_digest_stays_below_one(self, monkeypatch: pytest.MonkeyPatch) -> None:
        """Each uniform keeps its word's top 53 bits: the all-ones word reads
        1 - 2**-53, not 1.0, so a down node's threshold of 1.0 catches it."""

        class AllOnes:
            def __init__(self, data: bytes, *, key: bytes, digest_size: int) -> None:
                self.size = digest_size

            def digest(self) -> bytes:
                return b"\xff" * self.size

        monkeypatch.setattr(faults, "blake2b", AllOnes)
        assert ((1 << 64) - 1) * 2.0**-64 == 1.0  # why the naive scaling is wrong
        top = 1.0 - 2.0**-53
        raw = KeyedFaultInjector(FaultPlan.uniform_loss(0.0, latency=0.0, jitter=1.0), seed=4)
        verdict = raw.data_verdict(0, 1, EDGE, 1, 0)
        assert verdict.latencies == (top, top) and verdict.ack_latency == top
        assert verdict.jitter == top and not verdict.lost and not verdict.ack_lost
        down = KeyedFaultInjector(FaultPlan(outages=(NodeOutage(1, 1, 1),)), seed=4)
        assert down.data_verdict(0, 1, EDGE, 1, 0).lost
        assert down.data_verdict(1, 0, EDGE, 1, 0).ack_lost

    def test_empirical_loss_rate_matches_the_plan(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(0.2), seed=1)
        lost = sum(
            injector.data_verdict(sender, receiver, EDGE, uid, attempt).lost
            for sender, receiver, uid, attempt in _coordinates(self.COORDINATES)
        )
        assert abs(lost / self.COORDINATES - 0.2) <= 0.01

    def test_data_and_ack_draws_are_uncorrelated(self) -> None:
        injector = KeyedFaultInjector(FaultPlan.uniform_loss(0.5), seed=2)
        pairs = [
            (
                float(injector.data_verdict(sender, receiver, EDGE, uid, attempt).lost),
                float(injector.ack_verdict(sender, receiver, EDGE, uid, attempt)),
            )
            for sender, receiver, uid, attempt in _coordinates(self.COORDINATES)
        ]
        n = len(pairs)
        mean_x = sum(x for x, _ in pairs) / n
        mean_y = sum(y for _, y in pairs) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
        var_x = sum((x - mean_x) ** 2 for x, _ in pairs)
        var_y = sum((y - mean_y) ** 2 for _, y in pairs)
        assert abs(cov / (var_x * var_y) ** 0.5) < 0.02

    def test_node_outage_drops_every_attempt_to_the_down_node(self) -> None:
        plan = FaultPlan(
            default_profile=LinkProfile(loss_rate=0.0, duplicate_rate=0.5),
            outages=(NodeOutage(node_id=7, first_epoch=3, last_epoch=6),),
        )
        injector = KeyedFaultInjector(plan, seed=5)
        for sender in range(20):
            for uid in range(3, 7):
                for attempt in range(8):
                    assert injector.data_verdict(sender, 7, EDGE, uid, attempt).lost
                    # ...and every ACK travelling back to it.
                    assert injector.ack_verdict(7, sender, EDGE, uid, attempt)
            assert not injector.data_verdict(sender, 7, EDGE, 7, 0).lost

    def test_burst_free_thresholds_are_the_profile_rates(self) -> None:
        profiles = {EdgeClass.AGGREGATOR_TO_QUERIER: LinkProfile(loss_rate=0.35)}
        plain = FaultPlan(default_profile=LinkProfile(loss_rate=0.2), profiles=profiles)
        with_outage = FaultPlan(
            default_profile=plain.default_profile,
            profiles=profiles,
            outages=(NodeOutage(node_id=99, first_epoch=0),),
        )
        for edge in EdgeClass:
            for epoch in range(50):
                assert plain.loss_rate(edge, epoch) == plain.profile_for(edge).loss_rate
                assert with_outage.loss_rate(edge, epoch) == plain.profile_for(edge).loss_rate
        a = KeyedFaultInjector(plain, seed=8)
        b = KeyedFaultInjector(with_outage, seed=8)
        for edge in EdgeClass:
            for sender, receiver, uid, attempt in _coordinates(2_000):
                assert a.data_verdict(sender, receiver, edge, uid, attempt) == b.data_verdict(
                    sender, receiver, edge, uid, attempt
                )
