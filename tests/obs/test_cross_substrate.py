"""One trace schema across substrates.

Same seed, tree, workload and fault plan through the keyed event
runtime and the asyncio TCP cluster must yield *identical*
seed-determined disposition slices — per-epoch delivered/dropped sets
of hops — because both substrates consult the same attempt-keyed fault
oracle (``KeyedFaultInjector``: one keyed BLAKE2b digest per attempt
coordinate).  Timing-dependent kinds (duplicates, ACK losses, give-ups)
are recorded but excluded from the compared slice.  Without loss the
analytic simulator's trace agrees with both.

The published traffic series must mean the same thing on every
substrate as well: one message and its payload and frame bytes per
attempt, counted into the run's one ledger — and one ``attempt`` trace
event per message.
"""

from __future__ import annotations

import pytest

from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.network.channel import EdgeClass
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    diff_traces,
    publish_cluster_metrics,
    publish_network_metrics,
    publish_runtime_metrics,
)
from repro.runtime import BurstLoss, FaultPlan, NodeOutage, RuntimeConfig, RuntimeSimulator

pytestmark = pytest.mark.cluster

#: Generous real-seconds deadlines so cluster event-loop lag can never
#: turn an oracle-delivered frame into a late one (see SAFE in
#: tests/cluster/test_end_to_end.py).
SAFE = dict(hold_time=0.5, querier_slack=0.5)


def _analytic_trace(n, fanout, epochs, seed) -> tuple[TraceRecorder, object]:
    recorder = TraceRecorder(substrate="network", run_id=f"seed-{seed}")
    simulator = NetworkSimulator(
        SIESProtocol(n, seed=seed),
        build_complete_tree(n, fanout),
        DomainScaledWorkload(n, scale=100, seed=seed),
        SimulationConfig(num_epochs=epochs, observer=recorder),
    )
    return recorder, simulator.run()


def _runtime_trace(n, fanout, epochs, seed, plan) -> tuple[TraceRecorder, object]:
    recorder = TraceRecorder(substrate="runtime", run_id=f"seed-{seed}")
    simulator = RuntimeSimulator(
        SIESProtocol(n, seed=seed),
        build_complete_tree(n, fanout),
        DomainScaledWorkload(n, scale=100, seed=seed),
        RuntimeConfig(
            num_epochs=epochs, seed=seed, plan=plan, keyed_faults=True, observer=recorder
        ),
    )
    return recorder, simulator.run()


def _cluster_trace(n, fanout, epochs, seed, plan) -> tuple[TraceRecorder, object]:
    import asyncio

    recorder = TraceRecorder(substrate="cluster", run_id=f"seed-{seed}")
    config = ClusterConfig(
        num_epochs=epochs,
        seed=seed,
        plan=plan,
        window=4,
        observer=recorder,
        **SAFE,
    )
    orchestrator = EpochOrchestrator(
        SIESProtocol(n, seed=seed),
        build_complete_tree(n, fanout),
        DomainScaledWorkload(n, scale=100, seed=seed),
        config,
    )
    return recorder, asyncio.run(orchestrator.run())


def test_runtime_and_cluster_traces_agree_under_20pct_loss() -> None:
    n, fanout, epochs, seed = 8, 2, 4, 2011
    plan = FaultPlan.uniform_loss(0.2)
    runtime_rec, runtime_metrics = _runtime_trace(n, fanout, epochs, seed, plan)
    cluster_rec, cluster_metrics = _cluster_trace(n, fanout, epochs, seed, plan)

    verdict = diff_traces(
        runtime_rec.events, cluster_rec.events, label_a="runtime", label_b="cluster"
    )
    assert verdict.agrees, verdict.describe()

    # The traces are not vacuous: 20% loss swallows plenty of individual
    # attempts (though the 5-attempt ARQ still delivers every parcel).
    slices = runtime_rec.dispositions()
    assert sorted(slices) == list(range(1, epochs + 1))
    assert any(e.kind == "drop" for e in runtime_rec.events)
    assert all(s["delivered"] for s in slices.values())

    # And the traces agree with the ledgers they narrate: per-epoch
    # survivor sets match on both substrates (keyed oracle differential).
    for rt_epoch, cl_epoch in zip(runtime_metrics.epochs, cluster_metrics.epochs):
        assert rt_epoch.recovery.survivors == cl_epoch.recovery.survivors


def test_traces_agree_when_whole_hops_die() -> None:
    """At 55% loss some parcels exhaust all five attempts: the dropped
    sets are non-empty and still identical across substrates."""
    plan = FaultPlan.uniform_loss(0.55)
    runtime_rec, _ = _runtime_trace(8, 2, 3, 2011, plan)
    cluster_rec, _ = _cluster_trace(8, 2, 3, 2011, plan)
    verdict = diff_traces(
        runtime_rec.events, cluster_rec.events, label_a="runtime", label_b="cluster"
    )
    assert verdict.agrees, verdict.describe()
    slices = runtime_rec.dispositions()
    assert any(s["dropped"] for s in slices.values())


def test_trace_agreement_across_seeds() -> None:
    plan = FaultPlan.uniform_loss(0.35)
    for seed in (1, 17):
        runtime_rec, _ = _runtime_trace(8, 2, 3, seed, plan)
        cluster_rec, _ = _cluster_trace(8, 2, 3, seed, plan)
        verdict = diff_traces(
            runtime_rec.events, cluster_rec.events, label_a="runtime", label_b="cluster"
        )
        assert verdict.agrees, f"seed {seed}: {verdict.describe()}"


def test_lossless_traces_have_no_drops_and_full_delivery() -> None:
    analytic_rec, _ = _analytic_trace(8, 2, 2, 5)
    runtime_rec, _ = _runtime_trace(8, 2, 2, 5, FaultPlan.lossless())
    cluster_rec, _ = _cluster_trace(8, 2, 2, 5, FaultPlan.lossless())
    # every sending node (sources + aggregators, root included) delivers
    hops = 8 + build_complete_tree(8, 2).num_aggregators
    for recorder in (analytic_rec, runtime_rec, cluster_rec):
        assert sorted(recorder.dispositions()) == [1, 2]
        for per_epoch in recorder.dispositions().values():
            assert per_epoch["dropped"] == []
            assert per_epoch["late"] == []
            assert len(per_epoch["delivered"]) == hops
    for label, other in (("runtime", runtime_rec), ("cluster", cluster_rec)):
        verdict = diff_traces(
            analytic_rec.events, other.events, label_a="analytic", label_b=label
        )
        assert verdict.agrees, verdict.describe()


def _assert_substrates_agree(n, fanout, epochs, seed, plan):
    runtime_rec, runtime_metrics = _runtime_trace(n, fanout, epochs, seed, plan)
    cluster_rec, cluster_metrics = _cluster_trace(n, fanout, epochs, seed, plan)
    verdict = diff_traces(
        runtime_rec.events, cluster_rec.events, label_a="runtime", label_b="cluster"
    )
    assert verdict.agrees, verdict.describe()
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    for rt_epoch, cl_epoch in zip(runtime_metrics.epochs, cluster_metrics.epochs, strict=True):
        assert rt_epoch.recovery.survivors == cl_epoch.recovery.survivors
        for em in (rt_epoch, cl_epoch):
            assert em.accepted, f"epoch {em.epoch}: {em.security_failure}"
            expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
            assert em.result is not None and em.result.value == expected
    return runtime_rec, runtime_metrics


def test_traces_agree_with_an_aggregator_down_for_epochs_one_and_two() -> None:
    n, fanout = 8, 2
    tree = build_complete_tree(n, fanout)
    aggregator = tree.parent(0)
    assert aggregator is not None
    plan = FaultPlan(
        default_profile=FaultPlan.uniform_loss(0.2).default_profile,
        outages=(NodeOutage(node_id=aggregator, first_epoch=1, last_epoch=2),),
    )
    runtime_rec, metrics = _assert_substrates_agree(n, fanout, 4, 2011, plan)
    subtree = frozenset(tree.leaves_under(aggregator))
    for em in metrics.epochs:
        if em.epoch <= 2:
            assert not em.recovery.survivors & subtree
        slices = runtime_rec.dispositions()[em.epoch]
        into = [hop for hop in slices["delivered"] if hop[1] == aggregator]
        assert bool(into) == (em.epoch > 2)


def test_traces_agree_under_an_edge_class_burst() -> None:
    plan = FaultPlan(
        default_profile=FaultPlan.uniform_loss(0.1).default_profile,
        bursts=(
            BurstLoss(
                first_epoch=2,
                last_epoch=2,
                loss_rate=0.9,
                edge_class=EdgeClass.SOURCE_TO_AGGREGATOR,
            ),
        ),
    )
    runtime_rec, _ = _assert_substrates_agree(8, 2, 3, 17, plan)
    slices = runtime_rec.dispositions()
    assert slices[2]["dropped"], "the burst epoch lost no source hop"


#: The series ``publish_traffic`` writes, plus the ARQ attempts they
#: must agree with.
_TRAFFIC = (
    "sies_traffic_messages_total",
    "sies_traffic_bytes_total",
    "sies_frame_bytes_total",
    "sies_decode_failures_total",
)


def _series(publish, metrics, names) -> dict[str, dict[str, float]]:
    """``{metric: {edge: value}}`` of *metrics* published alone."""
    registry = MetricsRegistry()
    publish(metrics, registry)
    out = {}
    for name in names:
        metric = registry.get(name)
        assert metric is not None, name
        out[name] = {labels[1]: value for _, labels, value in metric.samples()}
    return out


def test_traffic_series_count_attempts_on_both_arq_substrates() -> None:
    """Regression: the cluster once published deliveries as messages,
    framed PSR bytes once per parcel as payload bytes, and envelope
    bytes as frame bytes; both substrates now publish one definition."""
    n, fanout, epochs, seed = 8, 2, 4, 2011
    plan = FaultPlan.uniform_loss(0.2)
    _, runtime_metrics = _runtime_trace(n, fanout, epochs, seed, plan)
    _, cluster_metrics = _cluster_trace(n, fanout, epochs, seed, plan)
    protocol = SIESProtocol(n, seed=seed)
    psr = protocol.create_source(0).initialize(1, 1)
    frame_size = protocol.wire_codec().framed_size(psr)

    names = _TRAFFIC + ("sies_transport_attempts_total",)
    runtime = _series(publish_runtime_metrics, runtime_metrics, names)
    cluster = _series(publish_cluster_metrics, cluster_metrics, names)
    for published in (runtime, cluster):
        attempts = published["sies_transport_attempts_total"]
        assert set(attempts) == {edge.value for edge in EdgeClass}
        assert published["sies_traffic_messages_total"] == attempts
        assert published["sies_traffic_bytes_total"] == {
            edge: protocol.psr_bytes * count for edge, count in attempts.items()
        }
        assert published["sies_frame_bytes_total"] == {
            edge: frame_size * count for edge, count in attempts.items()
        }
        assert published["sies_decode_failures_total"] == {}
    # Slow ACKs may add cluster attempts; wherever they did not, the
    # two substrates publish the same traffic, edge class by edge class.
    rt_attempts = runtime["sies_transport_attempts_total"]
    cl_attempts = cluster["sies_transport_attempts_total"]
    matched = [edge for edge in rt_attempts if rt_attempts[edge] == cl_attempts[edge]]
    assert matched, "no edge class made the same attempts on both substrates"
    for name in _TRAFFIC:
        for edge in matched:
            assert runtime[name].get(edge) == cluster[name].get(edge), (name, edge)


@pytest.mark.parametrize("substrate", ["runtime", "cluster"])
def test_attempt_events_match_ledger_messages(substrate: str) -> None:
    """The trace narrates the ledger at 20% loss: one ``attempt`` event
    per message counted, edge class by edge class (the analytic
    simulator: ``tests/network/test_tracing.py``)."""
    trace = _runtime_trace if substrate == "runtime" else _cluster_trace
    recorder, metrics = trace(8, 2, 4, 2011, FaultPlan.uniform_loss(0.2))
    ledger = metrics.transport if substrate == "runtime" else metrics.traffic
    assert recorder.filter(kinds=("drop",))
    for edge in EdgeClass:
        attempts = recorder.filter(edge=edge.value, kinds=("attempt",))
        assert len(attempts) == ledger.edge(edge).messages > 0


def test_lossless_runtime_publishes_the_analytic_traffic() -> None:
    n, fanout, epochs, seed = 8, 2, 3, 5
    args = (
        SIESProtocol(n, seed=seed),
        build_complete_tree(n, fanout),
        DomainScaledWorkload(n, scale=100, seed=seed),
    )
    analytic = NetworkSimulator(*args, SimulationConfig(num_epochs=epochs)).run()
    runtime = RuntimeSimulator(
        *args,
        RuntimeConfig(
            num_epochs=epochs, seed=seed, plan=FaultPlan.lossless(), keyed_faults=True
        ),
    ).run()
    network_series = _series(publish_network_metrics, analytic, _TRAFFIC)
    runtime_series = _series(publish_runtime_metrics, runtime, _TRAFFIC)
    assert network_series == runtime_series
    assert network_series["sies_traffic_messages_total"]["S-A"] == n * epochs
