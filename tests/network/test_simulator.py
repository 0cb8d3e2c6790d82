"""The epoch-driven simulator: correctness, accounting, failures."""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.network.energy import FirstOrderRadioModel
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree, build_random_tree

N = 16


@pytest.fixture()
def setup():
    protocol = SIESProtocol(N, seed=1)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 100, seed=2)
    return protocol, tree, workload


def test_exact_sums_across_epochs(setup) -> None:
    protocol, tree, workload = setup
    metrics = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=5)).run()
    assert metrics.num_epochs == 5
    for em in metrics.epochs:
        expected = sum(workload(s, em.epoch) for s in range(N))
        assert em.result is not None
        assert em.result.value == expected
        assert em.result.verified and em.result.exact
    assert metrics.all_verified()
    assert metrics.security_failures() == []


def test_works_on_random_topologies() -> None:
    protocol = SIESProtocol(33, seed=5)
    tree = build_random_tree(33, max_fanout=5, seed=6)
    workload = UniformWorkload(33, 1, 50, seed=7)
    metrics = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=3)).run()
    for em in metrics.epochs:
        assert em.result.value == sum(workload(s, em.epoch) for s in range(33))


def test_message_counts_match_topology(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=2))
    metrics = sim.run()
    traffic = metrics.traffic
    # per epoch: N source messages, (aggregators - 1) A-A, 1 A-Q
    assert traffic.messages == {
        EdgeClass.SOURCE_TO_AGGREGATOR: 2 * N,
        EdgeClass.AGGREGATOR_TO_AGGREGATOR: 2 * (tree.num_aggregators - 1),
        EdgeClass.AGGREGATOR_TO_QUERIER: 2,
    }
    assert traffic.per_message("payload_bytes", EdgeClass.SOURCE_TO_AGGREGATOR) == protocol.psr_bytes


def test_epoch_metrics_counts(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload)
    em = sim.run_epoch(1)
    assert em.sources_reporting == N
    # every aggregator merges once and forwards exactly one PSR
    messages = sim.channel.ledger.messages
    forwarded = sum(
        messages.get(edge, 0)
        for edge in (EdgeClass.AGGREGATOR_TO_AGGREGATOR, EdgeClass.AGGREGATOR_TO_QUERIER)
    )
    assert forwarded == tree.num_aggregators
    assert em.recovery.complete and em.completion_latency == 0.0


def test_failed_sources_are_excluded_and_verified(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=3))
    sim.fail_source_at(3, [2])
    sim.fail_source_at(7, [2, 3])
    metrics = sim.run()
    for em in metrics.epochs:
        failed = {3, 7} if em.epoch == 2 else ({7} if em.epoch == 3 else set())
        expected = sum(workload(s, em.epoch) for s in range(N) if s not in failed)
        assert em.result.value == expected and em.result.verified


def test_permanently_failed_sources(setup) -> None:
    protocol, tree, workload = setup
    config = SimulationConfig(num_epochs=2, failed_sources=frozenset({0, 1}))
    metrics = NetworkSimulator(protocol, tree, workload, config).run()
    for em in metrics.epochs:
        expected = sum(workload(s, em.epoch) for s in range(2, N))
        assert em.result.value == expected and em.result.verified
        assert em.sources_reporting == N - 2


def test_whole_subtree_failure_still_produces_result(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=1))
    subtree_sources = tree.leaves_under(tree.children(tree.root_id)[0])
    for sid in subtree_sources:
        sim.fail_source_at(sid, [1])
    em = sim.run_epoch(1)
    expected = sum(workload(s, 1) for s in range(N) if s not in set(subtree_sources))
    assert em.result.value == expected and em.result.verified


def test_unknown_failed_source_rejected(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload)
    with pytest.raises(SimulationError):
        sim.fail_source_at(999, [1])


def test_topology_protocol_size_mismatch(setup) -> None:
    protocol, _, workload = setup
    with pytest.raises(SimulationError):
        NetworkSimulator(protocol, build_complete_tree(8, 4), workload)


def test_dropped_final_message_records_message_lost(setup) -> None:
    """A final PSR swallowed on its last hop is loss, not absence."""
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=1))
    sim.channel.add_interceptor(
        lambda m, e: None if e is EdgeClass.AGGREGATOR_TO_QUERIER else m
    )
    em = sim.run_epoch(1)
    assert em.result is None
    assert em.security_failure == "MessageLost"


def test_nothing_sent_records_no_result(setup) -> None:
    """Sources attempted but every PSR was swallowed: the epoch is lost.

    Only an epoch in which no source attempted at all — every one
    failed — has no result to lose.
    """
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=1))
    sim.channel.add_interceptor(
        lambda m, e: None if e is EdgeClass.SOURCE_TO_AGGREGATOR else m
    )
    em = sim.run_epoch(1)
    assert em.result is None
    assert em.security_failure == "MessageLost"
    assert em.sources_reporting == N and not em.recovery.converged

    config = SimulationConfig(num_epochs=1, failed_sources=frozenset(range(N)))
    em = NetworkSimulator(SIESProtocol(N, seed=1), tree, workload, config).run_epoch(1)
    assert em.result is None
    assert em.security_failure == "NoResult"
    assert em.sources_reporting == 0


def test_message_lost_parity_across_run_modes(setup) -> None:
    """run and run_epoch must classify final-hop drops alike."""
    _, tree, workload = setup

    def lossy(epoch_mod):
        return lambda m, e: (
            None
            if e is EdgeClass.AGGREGATOR_TO_QUERIER and m.epoch % 2 == epoch_mod
            else m
        )

    verdicts = {}
    for mode in ("run", "run_epoch"):
        sim = NetworkSimulator(
            SIESProtocol(N, seed=1), tree, workload, SimulationConfig(num_epochs=4)
        )
        sim.channel.add_interceptor(lossy(0))
        if mode == "run":
            metrics = sim.run()
            verdicts[mode] = [(em.epoch, em.security_failure) for em in metrics.epochs]
        else:
            verdicts[mode] = [
                (epoch, sim.run_epoch(epoch).security_failure) for epoch in range(1, 5)
            ]
    assert verdicts["run"] == verdicts["run_epoch"]
    assert [failure for _, failure in verdicts["run"]] == [
        None, "MessageLost", None, "MessageLost"
    ]


def test_energy_accounting(setup) -> None:
    protocol, tree, workload = setup
    config = SimulationConfig(num_epochs=2, energy_model=FirstOrderRadioModel())
    metrics = NetworkSimulator(protocol, tree, workload, config).run()
    assert set(metrics.energy_by_node) == {n.node_id for n in tree}
    # aggregators both receive and transmit; sources only transmit;
    # with equal message sizes an aggregator must spend more
    source_spend = metrics.energy_by_node[0]
    aggregator_spend = metrics.energy_by_node[tree.parent(0)]
    assert aggregator_spend > source_spend


def _measured(metrics) -> tuple:
    """Everything a run counts, copied out of its record."""
    return (
        [em.result.value for em in metrics.epochs],
        dict(metrics.source_ops.counts),
        dict(metrics.aggregator_ops.counts),
        dict(metrics.querier_ops.counts),
        metrics.traffic.as_dict(),
        dict(metrics.energy_by_node),
    )


def test_every_run_is_measured_from_zero(setup) -> None:
    """Regression: a second ``run()`` on one simulator once counted the
    first run's operations and energy again, and rewrote the first
    record's op counts, which shared the simulator's counters."""
    protocol, tree, workload = setup
    config = SimulationConfig(num_epochs=2, energy_model=FirstOrderRadioModel())
    fresh = _measured(NetworkSimulator(protocol, tree, workload, config).run())
    sim = NetworkSimulator(protocol, tree, workload, config)
    first = sim.run()
    assert _measured(first) == fresh
    second = sim.run()
    assert _measured(second) == fresh
    assert _measured(first) == fresh


def test_evaluate_disabled(setup) -> None:
    protocol, tree, workload = setup
    metrics = NetworkSimulator(
        protocol, tree, workload, SimulationConfig(num_epochs=1, evaluate=False)
    ).run()
    assert metrics.epochs[0].result is None
    assert metrics.epochs[0].security_failure is None


def test_run_requires_positive_epochs(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload)
    with pytest.raises(Exception):
        sim.run(0)


def test_op_counters_match_cost_model_shapes(setup) -> None:
    protocol, tree, workload = setup
    sim = NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=1))
    metrics = sim.run()
    # source: per epoch and source — 2 HM256, 1 HM1, 1 mul, 1 add (Eq. 3)
    assert metrics.source_ops.get("hm256") == 2 * N
    assert metrics.source_ops.get("hm1") == N
    assert metrics.source_ops.get("mul32") == N
    # aggregator total: one add per PSR beyond the first at each merge = N - 1
    # (complete tree: sum over aggregators of (children - 1))
    assert metrics.aggregator_ops.get("add32") == N - 1
    # querier: Eq. 9 counts
    assert metrics.querier_ops.get("hm256") == N + 1
    assert metrics.querier_ops.get("hm1") == N
    assert metrics.querier_ops.get("add32") == 2 * N - 1
    assert metrics.querier_ops.get("inv32") == 1
