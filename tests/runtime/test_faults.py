"""Fault model: seeded determinism, burst windows, churn, rate validation."""

from __future__ import annotations

import pytest

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
    """A burst changing outcomes must not perturb any other draw."""
    quiet = KeyedFaultInjector(FaultPlan.uniform_loss(0.3, jitter=1.0), seed=5)
    bursty = KeyedFaultInjector(
        FaultPlan(
            default_profile=LinkProfile(loss_rate=0.3, jitter=1.0),
            bursts=(BurstLoss(first_epoch=0, last_epoch=4, loss_rate=1.0),),
        ),
        seed=5,
    )
    for uid in range(10):
        for attempt in range(3):
            # Latencies never depend on the loss verdict.
            assert quiet.data_latencies(0, 1, EDGE, uid, attempt, 2) == bursty.data_latencies(
                0, 1, EDGE, uid, attempt, 2
            )
    # After the burst window the two schedules are identical.
    for uid in range(5, 10):
        for attempt in range(3):
            assert quiet.data_verdict(0, 1, EDGE, uid, attempt) == bursty.data_verdict(
                0, 1, EDGE, uid, attempt
            )
            assert quiet.ack_verdict(0, 1, EDGE, uid, attempt) == bursty.ack_verdict(
                0, 1, EDGE, uid, attempt
            )


class TestKeyedFaultInjector:
    """The keyed oracle both substrates consult."""

    def test_matches_the_cluster_injector_draw_for_draw(self) -> None:
        """Verdicts are the literal ``"cluster"``-labelled keyed draws —
        the schedule every pinned cluster test was recorded against."""
        from repro.utils.rng import DeterministicRandom

        plan = FaultPlan.uniform_loss(0.3, duplicate_rate=0.1)
        keyed = KeyedFaultInjector(plan, seed=11)
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        for uid in (1, 2, 900):
            for attempt in range(3):
                labels = ("0->1", f"uid:{uid}", f"try:{attempt}")
                data = DeterministicRandom(11, "cluster", "data", *labels)
                u_loss, u_dup = data.random(), data.random()
                verdict = keyed.data_verdict(0, 1, edge, uid, attempt)
                assert verdict.lost == (u_loss < 0.3)
                if not verdict.lost:
                    assert verdict.copies == (2 if u_dup < 0.1 else 1)
                ack = DeterministicRandom(11, "cluster", "ack", *labels)
                assert keyed.ack_verdict(0, 1, edge, uid, attempt) == (ack.random() < 0.3)

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
