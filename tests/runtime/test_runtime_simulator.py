"""End-to-end runtime: lossless parity, recovery, churn, determinism.

The acceptance-criterion test lives here under the ``runtime`` marker:
a seeded 20% per-hop loss schedule over ≥100 epochs on a 64-source
tree must complete with zero spurious integrity rejections — every
epoch either recovers all sources or reports the lost subset and the
querier's exact SUM over the survivors verifies — and two runs with
the same seed must produce identical metrics ledgers.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_chain_tree, build_complete_tree
from repro.runtime import (
    FaultPlan,
    LinkProfile,
    NodeOutage,
    RetransmitPolicy,
    RuntimeConfig,
    RuntimeSimulator,
)

N = 16
SEED = 7


def make_runtime(
    *,
    n: int = N,
    epochs: int = 8,
    plan: FaultPlan | None = None,
    seed: int = SEED,
    tree=None,
    **config_kwargs,
):
    protocol = SIESProtocol(num_sources=n, seed=seed)
    workload = UniformWorkload(n, 0, 500, seed=seed)
    config = RuntimeConfig(
        num_epochs=epochs, plan=plan or FaultPlan.lossless(), seed=seed, **config_kwargs
    )
    tree = tree if tree is not None else build_complete_tree(n, fanout=4)
    return RuntimeSimulator(protocol, tree, workload, config), workload


def test_lossless_matches_network_simulator() -> None:
    """On a perfect network the runtime reproduces NetworkSimulator exactly."""
    sim, workload = make_runtime()
    runtime_metrics = sim.run()

    reference = NetworkSimulator(
        SIESProtocol(num_sources=N, seed=SEED),
        build_complete_tree(N, fanout=4),
        workload,
        SimulationConfig(num_epochs=8),
    ).run()

    assert runtime_metrics.num_epochs == reference.num_epochs
    for runtime_epoch, reference_epoch in zip(runtime_metrics.epochs, reference.epochs):
        assert runtime_epoch.epoch == reference_epoch.epoch
        assert runtime_epoch.result is not None and reference_epoch.result is not None
        assert runtime_epoch.result.value == reference_epoch.result.value
        assert runtime_epoch.result.verified
        assert runtime_epoch.recovery.complete
    assert runtime_metrics.delivery_rate() == 1.0
    assert runtime_metrics.traffic.total("retransmissions") == 0
    # Identical crypto work on both execution substrates.
    assert runtime_metrics.source_ops.counts == reference.source_ops.counts
    assert runtime_metrics.aggregator_ops.counts == reference.aggregator_ops.counts
    assert runtime_metrics.querier_ops.counts == reference.querier_ops.counts


def test_loss_recovers_to_exact_sum_over_survivors() -> None:
    sim, workload = make_runtime(plan=FaultPlan.uniform_loss(0.3), epochs=10)
    metrics = sim.run()
    assert metrics.acceptance_rate() == 1.0  # no epoch rejected
    saw_partial = False
    for em in metrics.epochs:
        assert em.result is not None and em.result.verified
        expected = sum(workload(sid, em.epoch) for sid in sorted(em.recovery.survivors))
        assert em.result.value == expected
        saw_partial = saw_partial or not em.recovery.complete
    assert metrics.traffic.total("retransmissions") > 0


def test_late_copies_are_counted_and_never_reach_the_sum() -> None:
    """A hold time below the ARQ's second retransmit delay makes copies
    miss their merge deadline; each is counted late against its epoch and
    none of the sources it carried survives."""
    late: list[dict] = []
    sim, workload = make_runtime(
        plan=FaultPlan.uniform_loss(0.4),
        epochs=10,
        hold_time=20.0,
        seed=1,
        observer=lambda kind, attrs: late.append(attrs) if kind == "late" else None,
    )
    assert sim.config.hold_time < sim.config.policy.timeout_for(0, 0.0) + (
        sim.config.policy.timeout_for(1, 0.0)
    )
    metrics = sim.run()

    assert any(em.late_arrivals >= 1 for em in metrics.epochs)
    assert sum(em.late_arrivals for em in metrics.epochs) == len(late)
    assert sum(em.late_arrivals for em in metrics.epochs) == metrics.traffic.total(
        "late_frames"
    )
    by_epoch = {em.epoch: em for em in metrics.epochs}
    for attrs in late:
        em = by_epoch[attrs["epoch"]]
        # A late first copy is never merged, and it was its sources'
        # only way up the tree this epoch.
        carried = set(sim.tree.leaves_under(attrs["sender"]))
        assert not carried & em.recovery.survivors
    for em in metrics.epochs:
        assert em.late_arrivals == sum(1 for attrs in late if attrs["epoch"] == em.epoch)
        if em.accepted:
            assert em.result.value == sum(
                workload(sid, em.epoch) for sid in em.recovery.survivors
            )


def test_pre_declared_failures_never_attempt() -> None:
    sim, workload = make_runtime(failed_sources=frozenset({1, 5}))
    metrics = sim.run()
    for em in metrics.epochs:
        assert em.recovery.pre_failed == frozenset({1, 5})
        assert em.recovery.survivors == frozenset(range(N)) - {1, 5}
        expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
        assert em.result is not None and em.result.value == expected and em.result.verified


def test_all_sources_failed_records_no_result() -> None:
    sim, _ = make_runtime(epochs=2, failed_sources=frozenset(range(N)))
    metrics = sim.run()
    for em in metrics.epochs:
        assert em.security_failure == "NoResult"
        assert not em.recovery.converged


def test_total_blackout_records_message_lost() -> None:
    plan = FaultPlan.uniform_loss(1.0)
    sim, _ = make_runtime(epochs=2, plan=plan)
    metrics = sim.run()
    for em in metrics.epochs:
        assert em.security_failure == "MessageLost"
        assert not em.recovery.converged
        assert em.recovery.lost == frozenset(range(N))
    assert metrics.acceptance_rate() == 0.0


def test_aggregator_crash_loses_subtree_then_recovers() -> None:
    tree = build_complete_tree(N, fanout=4)
    aggregator = tree.parent(0)  # the first leaf-level aggregator
    assert aggregator is not None
    subtree = frozenset(tree.leaves_under(aggregator))
    # Down for the first two epochs, back for the rest.
    plan = FaultPlan(
        default_profile=LinkProfile(loss_rate=0.0, latency=1.0, jitter=0.0),
        outages=(NodeOutage(node_id=aggregator, first_epoch=1, last_epoch=2),),
    )
    sim, workload = make_runtime(plan=plan, epochs=4, tree=tree)
    metrics = sim.run()
    for em in metrics.epochs[:2]:
        assert em.recovery.lost == subtree
        assert em.result is not None and em.result.verified
        expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
        assert em.result.value == expected
    for em in metrics.epochs[2:]:
        assert em.recovery.complete


def test_crashed_source_counts_as_node_failure() -> None:
    plan = FaultPlan(outages=(NodeOutage(node_id=3, first_epoch=1, last_epoch=2),))
    sim, _ = make_runtime(plan=plan, epochs=3)
    metrics = sim.run()
    assert metrics.epochs[0].recovery.pre_failed == frozenset({3})
    assert metrics.epochs[1].recovery.pre_failed == frozenset({3})
    assert metrics.epochs[2].recovery.pre_failed == frozenset()
    assert all(em.result is not None and em.result.verified for em in metrics.epochs)


def test_works_on_chain_topology_under_loss() -> None:
    """Depth = N: the worst multi-hop case must still recover."""
    n = 8
    tree = build_chain_tree(n)
    protocol = SIESProtocol(num_sources=n, seed=3)
    workload = UniformWorkload(n, 0, 100, seed=3)
    config = RuntimeConfig(
        num_epochs=4,
        plan=FaultPlan.uniform_loss(0.15),
        seed=3,
        epoch_interval=4000.0,
        hold_time=150.0,
        querier_slack=500.0,
    )
    metrics = RuntimeSimulator(protocol, tree, workload, config).run()
    for em in metrics.epochs:
        assert em.result is not None and em.result.verified
        expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
        assert em.result.value == expected


def test_adversary_interceptor_still_detected() -> None:
    """The Channel hook works unchanged: tampering rejects, not crashes."""
    from repro.attacks.adversary import AdditiveTamperAttack

    sim, _ = make_runtime(epochs=3)
    sim.channel.add_interceptor(
        AdditiveTamperAttack(delta=999_983, modulus=sim.protocol.p)
    )
    metrics = sim.run()
    for em in metrics.epochs:
        assert em.result is None
        assert em.security_failure == "VerificationFailure"


def test_run_is_one_shot() -> None:
    sim, _ = make_runtime(epochs=1)
    sim.run()
    with pytest.raises(SimulationError, match="one-shot"):
        sim.run()


def test_topology_protocol_mismatch_rejected() -> None:
    protocol = SIESProtocol(num_sources=8, seed=1)
    workload = UniformWorkload(8, 0, 10, seed=1)
    with pytest.raises(SimulationError):
        RuntimeSimulator(protocol, build_complete_tree(16, 4), workload)


def test_retransmissions_cost_traffic_bytes() -> None:
    lossless, _ = make_runtime(epochs=4)
    lossy, _ = make_runtime(epochs=4, plan=FaultPlan.uniform_loss(0.4))
    clean_metrics = lossless.run()
    lossy_metrics = lossy.run()
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    # Every retransmission is a real radio transmission: byte counters
    # must exceed the lossless run's on at least the source tier.
    lossy_sa = lossy_metrics.transport.edge(edge)
    assert lossy_sa.payload_bytes > clean_metrics.transport.edge(edge).payload_bytes
    assert lossy_sa.messages == lossy_sa.attempts
    assert lossy_metrics.traffic.total("retransmissions") > 0


def test_ledger_is_json_serializable() -> None:
    import json

    sim, _ = make_runtime(epochs=3, plan=FaultPlan.uniform_loss(0.2))
    ledger = sim.run().ledger()
    round_tripped = json.loads(json.dumps(ledger))
    assert round_tripped == ledger


# ----------------------------------------------------------------------
# The PR acceptance criterion
# ----------------------------------------------------------------------


@pytest.mark.runtime
def test_acceptance_100_epochs_64_sources_20pct_loss_deterministic() -> None:
    """Seeded 20% per-hop loss, ARQ on: 100 epochs, 64 sources, no spurious
    rejections, byte-identical ledgers across two runs."""

    def run_once():
        protocol = SIESProtocol(num_sources=64, seed=2011)
        workload = UniformWorkload(64, 0, 1000, seed=2011)
        config = RuntimeConfig(
            num_epochs=100,
            plan=FaultPlan.uniform_loss(0.2, latency=1.0, jitter=2.0),
            policy=RetransmitPolicy(max_retries=4, ack_timeout=12.0),
            seed=2011,
        )
        tree = build_complete_tree(64, fanout=4)
        return RuntimeSimulator(protocol, tree, workload, config).run(), workload

    metrics, workload = run_once()
    assert metrics.num_epochs == 100

    integrity_rejections = [
        em for em in metrics.epochs
        if em.security_failure not in (None, "MessageLost", "NoResult")
    ]
    assert integrity_rejections == [], (
        f"spurious integrity rejections: "
        f"{[(em.epoch, em.security_failure) for em in integrity_rejections]}"
    )
    for em in metrics.epochs:
        if not em.recovery.converged:
            continue
        # Either everything recovered, or the lost subset was reported
        # and the exact SUM over the survivors verified.
        assert em.result is not None and em.result.verified
        expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
        assert em.result.value == expected
    assert metrics.acceptance_rate() > 0.95
    assert metrics.delivery_rate() > 0.95
    assert metrics.traffic.total("retransmissions") > 0

    repeat, _ = run_once()
    assert repeat.ledger() == metrics.ledger(), "run is not seed-deterministic"
