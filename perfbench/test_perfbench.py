"""Tests of the benchmark itself: the fault-schedule walk, the tracer's
self-time arithmetic, and the layer-sum identity on every workload."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.network.topology import build_complete_tree
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.transport import RetransmitPolicy

import run
from layers import traced_prf
from oracle import screen_fault_seed, walk_epoch
from spans import Tracer
from workloads import Analytic, Cluster, ReadingTable, Runtime

POLICY = RetransmitPolicy(max_retries=4)


def test_walk_lossless_sends_every_hop_once() -> None:
    tree = build_complete_tree(8, 2)
    fate = walk_epoch(tree, KeyedFaultInjector(FaultPlan.lossless(), seed=3), POLICY, 1)
    hops = len(tree.source_ids) + len(tree.aggregator_ids)
    assert fate.survivors == frozenset(tree.source_ids)
    assert fate.parcels == fate.attempts == hops


def test_walk_total_loss_stops_at_the_sources() -> None:
    tree = build_complete_tree(8, 2)
    fate = walk_epoch(tree, KeyedFaultInjector(FaultPlan.uniform_loss(1.0), seed=3), POLICY, 1)
    assert fate.survivors == frozenset()
    assert fate.parcels == 8
    assert fate.attempts == 8 * POLICY.max_attempts


def test_walk_predicts_the_cluster() -> None:
    """Survivor sets equal the walk's; measured attempts never fall
    below the walk's, which assumes every ACK beats its timeout."""
    n, epochs, seed = 8, 6, 41
    tree = build_complete_tree(n, 2)
    plan = FaultPlan.uniform_loss(0.3)
    config = ClusterConfig(
        num_epochs=epochs, window=2, hold_time=0.5, querier_slack=0.5, plan=plan, seed=seed
    )
    table = ReadingTable(n, seed)
    metrics = asyncio.run(EpochOrchestrator(SIESProtocol(n, seed=seed), tree, table, config).run())
    injector = KeyedFaultInjector(plan, seed=seed)
    fates = [walk_epoch(tree, injector, config.policy, e) for e in range(1, epochs + 1)]
    assert [r.recovery.survivors for r in metrics.epochs] == [f.survivors for f in fates]
    assert metrics.traffic.total("attempts") >= sum(f.attempts for f in fates)
    for result in metrics.epochs:
        if result.accepted:
            assert result.result.value == table.total(result.epoch, result.recovery.survivors)


def test_screened_seed_keeps_every_epoch_loses_some_source_and_is_reproducible() -> None:
    tree = build_complete_tree(16, 4)
    plan = FaultPlan.uniform_loss(0.6)
    first = screen_fault_seed(tree, plan, POLICY, 5, range(1, 9))
    assert first == screen_fault_seed(tree, plan, POLICY, 5, range(1, 9))
    assert all(fate.survivors for fate in first[1])
    assert any(len(fate.survivors) < 16 for fate in first[1])


def test_self_time_subtracts_children() -> None:
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    assert tracer.self_seconds == {"b": 1.0, "a": 2.0, "root": 7.0}
    assert tracer.root_seconds == 10.0
    assert sum(tracer.self_seconds.values()) == tracer.root_seconds


def _benchmark_metric_names(kind: str) -> list[str]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize(
    "make",
    [
        lambda: Analytic(7, n=16, epochs_per_batch=2),
        lambda: Runtime(7, n=16, epochs_per_batch=4),
        lambda: Cluster(7, n=8, epochs_per_batch=4),
    ],
    ids=["analytic", "runtime", "cluster"],
)
def test_layer_sum_identity_and_metric_names(make) -> None:
    workload = make()
    untraced = run.measure(workload, 0.0)
    tracer = Tracer()
    with traced_prf(tracer):
        traced = run.measure(workload, 0.0, tracer)
    assert untraced.wrong == traced.wrong == 0
    assert run.identity_gap(tracer, traced.epochs) <= run.IDENTITY_TOLERANCE

    layers = run.per_layer(workload, tracer, untraced, traced)
    split = run.layer_split(tracer, traced.epochs)
    wall = 1000.0 * tracer.root_seconds / traced.epochs
    assert sum(split.values()) == pytest.approx(wall, rel=run.IDENTITY_TOLERANCE)
    assert layers["unattributed_ms_per_epoch"][0] == split[workload.unattributed]
    assert list(layers) == _benchmark_metric_names("per_layer")
    assert list(run.end_to_end(untraced)) == _benchmark_metric_names("end_to_end")
    if workload.name in run.EXACT_COUNT_WORKLOADS:
        assert all(counts == traced.counts[0] for counts in traced.counts)
