"""Both lossy substrates against the one oracle, epoch by epoch.

:meth:`repro.runtime.epoch.EpochPlanner.predict` replays the keyed fault
schedule up the tree before any run.  With default hold times the event
runtime (logical ticks) and the TCP cluster (scheduled seconds) must
both land on its survivor set in every epoch, over lossless links, 20 %
loss, 55 % loss with 30 % duplication, an aggregator outage, a source
outage with a burst, and pre-failed sources, on seeds 1–3.  On both,
every surviving ACK beats its timeout, so the run's ARQ attempts are the
oracle's too.
"""

from __future__ import annotations

import pytest

from repro.cluster.orchestrator import ClusterConfig, run_cluster
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.channel import EdgeClass
from repro.network.topology import build_complete_tree
from repro.runtime import (
    BurstLoss,
    FaultPlan,
    LinkProfile,
    NodeOutage,
    RuntimeConfig,
    RuntimeSimulator,
)
from repro.runtime.epoch import EpochPlanner
from repro.runtime.faults import KeyedFaultInjector

pytestmark = pytest.mark.cluster

N, FANOUT, EPOCHS = 16, 4, 4
TREE = build_complete_tree(N, FANOUT)
LOSS20 = LinkProfile(loss_rate=0.2)

#: name → (fault plan, pre-failed sources)
MATRIX = {
    "lossless": (FaultPlan.lossless(), frozenset()),
    "loss20": (FaultPlan(default_profile=LOSS20), frozenset()),
    "loss55-dup30": (
        FaultPlan(default_profile=LinkProfile(loss_rate=0.55, duplicate_rate=0.3)), frozenset()
    ),
    "aggregator-outage": (
        FaultPlan(
            default_profile=LOSS20,
            outages=(NodeOutage(node_id=TREE.parent(0), first_epoch=1, last_epoch=2),),
        ),
        frozenset(),
    ),
    "source-outage-burst": (
        FaultPlan(
            default_profile=LinkProfile(loss_rate=0.1),
            outages=(NodeOutage(node_id=5, first_epoch=2, last_epoch=3),),
            bursts=(BurstLoss(2, 3, loss_rate=0.8, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR),),
        ),
        frozenset(),
    ),
    "failed-sources": (FaultPlan(default_profile=LOSS20), frozenset({0, 7, 12})),
}


def _fates(plan: FaultPlan, failed: frozenset[int], policy, seed: int) -> dict:
    planner = EpochPlanner(
        TREE, hold_time=1.0, querier_slack=0.0, failed_sources=failed, faults=plan
    )
    injector = KeyedFaultInjector(plan, seed=seed)
    return {epoch: planner.predict(epoch, injector, policy) for epoch in range(1, EPOCHS + 1)}


def _assert_matches(metrics, fates: dict, workload) -> None:
    assert [em.epoch for em in metrics.epochs] == list(fates)
    for em in metrics.epochs:
        survivors = fates[em.epoch].survivors
        assert em.recovery.survivors == survivors, f"{metrics.substrate} epoch {em.epoch}"
        if survivors:
            assert em.accepted and em.result is not None
            assert em.result.value == sum(workload(sid, em.epoch) for sid in survivors)
        else:
            assert em.result is None
    assert metrics.traffic.total("attempts") == sum(fate.attempts for fate in fates.values())


def test_the_matrix_loses_sources_on_every_seed() -> None:
    """Every case but the first two loses a source in some epoch (no vacuous case)."""
    policy = ClusterConfig().policy
    for case, (plan, failed) in list(MATRIX.items())[2:]:
        for seed in (1, 2, 3):
            fates = _fates(plan, failed, policy, seed).values()
            assert any(len(fate.survivors) < N for fate in fates), (case, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", list(MATRIX))
def test_runtime_and_cluster_survivors_equal_the_prediction(case: str, seed: int) -> None:
    plan, failed = MATRIX[case]
    workload = DomainScaledWorkload(N, scale=100, seed=seed)

    runtime_config = RuntimeConfig(num_epochs=EPOCHS, plan=plan, seed=seed, failed_sources=failed)
    runtime = RuntimeSimulator(SIESProtocol(N, seed=seed), TREE, workload, runtime_config).run()
    _assert_matches(runtime, _fates(plan, failed, runtime_config.policy, seed), workload)

    cluster_config = ClusterConfig(
        num_epochs=EPOCHS, window=4, seed=seed, plan=plan, failed_sources=failed
    )
    cluster = run_cluster(SIESProtocol(N, seed=seed), TREE, workload, cluster_config)
    _assert_matches(cluster, _fates(plan, failed, cluster_config.policy, seed), workload)
