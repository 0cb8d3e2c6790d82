"""The cluster end-to-end: real sockets, exact SUMs, oracle-differential.

Three layers of assurance:

1. **Lossless differential** — over perfect links the TCP cluster must
   reproduce exactly what the in-process runtime (and ground truth)
   computes, epoch for epoch.
2. **Lossy oracle differential** — under seeded loss, every epoch's
   survivor set must equal the :func:`repro.cluster.faults.parcel_fate`
   walk of the tree, and the accepted value must be the exact SUM over
   those survivors (the paper's reported-failure-subset recovery).
3. **Acceptance run** (``slow``) — the ISSUE's headline scenario: a
   64-source SIES tree over localhost TCP with 20% seeded loss
   completing 100 pipelined epochs with zero silent drops and byte-exact
   wire accounting.
"""

from __future__ import annotations

import asyncio
import gc
import itertools

import pytest

from repro.cluster.faults import parcel_fate
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator, run_cluster
from repro.core.protocol import SIESProtocol
from repro.core.querier import SIESQuerier
from repro.datasets.workload import DomainScaledWorkload
from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.protocols.base import SecureAggregationProtocol
from repro.network.simulator import QUERIER_NODE_ID
from repro.network.topology import build_complete_tree
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator
from repro.runtime.epoch import EpochDriver
from repro.runtime.faults import BurstLoss, KeyedFaultInjector, NodeOutage
from repro.runtime.transport import RetransmitPolicy
from repro.wire.frame import HEADER_LEN

pytestmark = pytest.mark.cluster

#: Hold/slack used by the lossy tests: the ARQ's worst *delivered* wait
#: is ≈0.10 s (see orchestrator defaults), so a 0.5 s rung leaves real
#: margin for event-loop lag — late frames would (legitimately) shrink
#: survivor sets below the oracle's prediction.
SAFE = dict(hold_time=0.5, querier_slack=0.5)


def oracle_survivors(
    tree, plan: FaultPlan, policy: RetransmitPolicy, seed: int, epoch: int
) -> frozenset[int]:
    """Replay the keyed fault schedule bottom-up: a source survives iff
    every hop on its path to the querier delivers its epoch parcel."""
    injector = KeyedFaultInjector(plan, seed=seed)

    def hop_delivers(nid: int) -> bool:
        parent = tree.parent(nid)
        if parent is None:
            receiver, edge = QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER
        elif tree.node(nid).is_source:
            receiver, edge = parent, EdgeClass.SOURCE_TO_AGGREGATOR
        else:
            receiver, edge = parent, EdgeClass.AGGREGATOR_TO_AGGREGATOR
        return parcel_fate(injector, policy, nid, receiver, edge, epoch)[0]

    survivors = set()
    for sid in tree.source_ids:
        ok = hop_delivers(sid)
        node = tree.parent(sid)
        while ok and node is not None:
            ok = hop_delivers(node)
            node = tree.parent(node)
        if ok:
            survivors.add(sid)
    return frozenset(survivors)


def test_lossless_cluster_matches_runtime_and_ground_truth() -> None:
    n, epochs, seed = 8, 5, 2011
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    config = ClusterConfig(num_epochs=epochs, window=4, seed=seed, plan=FaultPlan.lossless())
    metrics = run_cluster(
        SIESProtocol(n, seed=seed), build_complete_tree(n, 2), workload, config
    )
    runtime = RuntimeSimulator(
        SIESProtocol(n, seed=seed),
        build_complete_tree(n, 2),
        workload,
        RuntimeConfig(num_epochs=epochs, plan=FaultPlan.lossless(), seed=seed),
    ).run()
    assert metrics.num_epochs == epochs
    for cluster_epoch, runtime_epoch in zip(metrics.epochs, runtime.epochs):
        assert cluster_epoch.accepted
        assert cluster_epoch.result is not None and cluster_epoch.result.verified
        truth = sum(workload(sid, cluster_epoch.epoch) for sid in range(n))
        assert cluster_epoch.result.value == truth
        assert runtime_epoch.result is not None
        assert cluster_epoch.result.value == runtime_epoch.result.value
        assert cluster_epoch.recovery.survivors == frozenset(range(n))
    assert metrics.delivery_rate() == 1.0 and metrics.acceptance_rate() == 1.0
    assert metrics.traffic.total("retransmissions") == 0
    assert metrics.traffic.total("drops_injected") == 0


def test_lossy_epochs_match_the_tree_walk_oracle() -> None:
    n, epochs = 16, 10
    plan = FaultPlan.uniform_loss(0.25)
    tree = build_complete_tree(n, 4)
    policy = ClusterConfig().policy
    # The first seed from 2011 on whose schedule loses a whole source in
    # some epoch, so the oracle comparison below is never vacuous.
    seed = next(
        candidate
        for candidate in itertools.count(2011)
        if any(
            len(oracle_survivors(tree, plan, policy, candidate, epoch)) < n
            for epoch in range(1, epochs + 1)
        )
    )
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    config = ClusterConfig(num_epochs=epochs, window=4, seed=seed, plan=plan, **SAFE)
    assert config.policy == policy
    metrics = run_cluster(SIESProtocol(n, seed=seed), tree, workload, config)
    assert metrics.num_epochs == epochs
    lossy_epochs = 0
    for em in metrics.epochs:
        expected = oracle_survivors(tree, plan, config.policy, seed, em.epoch)
        assert em.recovery.survivors == expected, f"epoch {em.epoch} diverged from oracle"
        if expected:
            assert em.accepted and em.result is not None and em.result.verified
            assert em.result.value == sum(workload(sid, em.epoch) for sid in expected)
        else:
            assert em.security_failure == "MessageLost" and em.result is None
        lossy_epochs += len(expected) < n
    assert lossy_epochs > 0, "25% loss produced no lossy epoch — test is vacuous"
    assert metrics.traffic.total("drops_injected") > 0
    metrics.traffic.check_conservation()
    # Whatever the timing, every late copy the ledger counts is one some
    # epoch records (stragglers after settlement included).
    assert sum(em.late_arrivals for em in metrics.epochs) == metrics.traffic.total(
        "late_frames"
    )


def test_late_copies_are_counted_whatever_the_timing() -> None:
    """A merge deadline shorter than the first ACK timeout: every source
    copy whose first delivered attempt is a retransmission reaches an
    inbox that already closed, and each one is recorded against its epoch."""
    n, epochs, seed = 8, 4, 2011
    plan = FaultPlan.uniform_loss(0.4)
    tree = build_complete_tree(n, 4)
    config = ClusterConfig(
        num_epochs=epochs, window=2, seed=seed, plan=plan, hold_time=0.002, querier_slack=0.2
    )
    assert config.hold_time < config.policy.ack_timeout
    metrics = run_cluster(
        SIESProtocol(n, seed=seed), tree, DomainScaledWorkload(n, scale=100, seed=seed), config
    )
    injector = KeyedFaultInjector(plan, seed=seed)
    edge = EdgeClass.SOURCE_TO_AGGREGATOR
    retried = 0
    for epoch in range(1, epochs + 1):
        for sid in tree.source_ids:
            parent = tree.parent(sid)
            attempts = range(config.policy.max_attempts)
            first = next(
                (a for a in attempts if not injector.data_verdict(sid, parent, edge, epoch, a).lost),
                None,
            )
            retried += first is not None and first > 0
    assert retried > 0, "40% loss needed no retransmission — test is vacuous"
    late = metrics.traffic.total("late_frames")
    assert late >= retried
    assert sum(em.late_arrivals for em in metrics.epochs) == late
    metrics.traffic.check_conservation()


def test_deterministic_ledger_is_window_and_rerun_invariant() -> None:
    """Same seed and plan → identical survivor sets and SUMs, whether the
    epochs pipeline one-at-a-time or all concurrently (and across reruns)."""
    n, seed = 8, 5

    def ledger(window: int) -> dict:
        config = ClusterConfig(
            num_epochs=3, window=window, seed=seed,
            plan=FaultPlan.uniform_loss(0.3), **SAFE,
        )
        metrics = run_cluster(
            SIESProtocol(n, seed=seed),
            build_complete_tree(n, 4),
            DomainScaledWorkload(n, scale=100, seed=seed),
            config,
        )
        return metrics.deterministic_ledger()

    sequential = ledger(window=1)
    pipelined = ledger(window=3)
    assert sequential == pipelined


def test_pre_failed_sources_are_excluded_and_reported() -> None:
    n, seed = 8, 7
    failed = frozenset({0, 3})
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    config = ClusterConfig(
        num_epochs=2, window=2, seed=seed, plan=FaultPlan.lossless(),
        failed_sources=failed,
    )
    metrics = run_cluster(
        SIESProtocol(n, seed=seed), build_complete_tree(n, 2), workload, config
    )
    for em in metrics.epochs:
        assert em.recovery.pre_failed == failed
        assert em.recovery.survivors == frozenset(range(n)) - failed
        assert em.accepted and em.result is not None
        assert em.result.value == sum(
            workload(sid, em.epoch) for sid in range(n) if sid not in failed
        )


def test_a_failing_driver_timer_fails_the_run(monkeypatch) -> None:
    """An error inside a loop timer (here the querier's expiry, the only
    way an all-failed epoch settles) must fail the run, not strand the
    epoch in its window slot forever."""

    def broken_expiry(self, epoch: int) -> None:
        raise SimulationError("expiry bug")

    monkeypatch.setattr(EpochDriver, "_expire", broken_expiry)
    n = 4
    config = ClusterConfig(
        num_epochs=2, window=2, plan=FaultPlan.lossless(), failed_sources=frozenset(range(n)),
        hold_time=0.01, querier_slack=0.01,
    )
    orchestrator = EpochOrchestrator(
        SIESProtocol(n, seed=1), build_complete_tree(n, 2),
        DomainScaledWorkload(n, scale=100, seed=1), config,
    )

    async def bounded() -> None:
        await asyncio.wait_for(orchestrator.run(), timeout=20.0)

    with pytest.raises(SimulationError, match="expiry bug"):
        asyncio.run(bounded())


def test_a_role_error_in_the_receive_path_is_the_error_run_raises(monkeypatch) -> None:
    """An error raised inside a node's inbound handler (here the querier's
    ``evaluate``, reached from the receive path of the final PSR) fails
    every epoch in flight; the fleet still drains, ``run()`` raises that
    error — not a socket error from the shutdown — and no task or
    callback error is left for the loop's exception handler."""

    def broken_evaluate(self, *args, **kwargs):
        raise RuntimeError("querier exploded")

    monkeypatch.setattr(SIESQuerier, "evaluate", broken_evaluate)
    loop_errors: list[dict] = []

    async def main() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        orchestrator = EpochOrchestrator(
            SIESProtocol(4, seed=3), build_complete_tree(4, fanout=4),
            lambda sid, epoch: sid + epoch, ClusterConfig(num_epochs=4, window=2),
        )
        with pytest.raises(RuntimeError, match="querier exploded"):
            await orchestrator.run()
        await asyncio.sleep(0.05)  # let any straggling callback reach the handler

    asyncio.run(main())
    gc.collect()  # an unretrieved task exception is reported when collected
    assert loop_errors == []


class TestConfigurationRejections:
    def test_tree_protocol_size_mismatch(self) -> None:
        with pytest.raises(SimulationError):
            EpochOrchestrator(
                SIESProtocol(8, seed=1),
                build_complete_tree(16, 4),
                DomainScaledWorkload(16, scale=100, seed=1),
            )

    def test_protocol_without_codec_rejected(self) -> None:
        """``wire_codec`` is abstract: a protocol without a wire format
        cannot be built, so no substrate ever meets one."""

        class NoWireProtocol(SecureAggregationProtocol):
            name = "no-wire"

            def create_source(self, source_id, *, ops=None):
                raise NotImplementedError

            def create_aggregator(self, *, ops=None):
                raise NotImplementedError

            def create_querier(self, *, ops=None):
                raise NotImplementedError

        with pytest.raises(TypeError, match="wire_codec"):
            NoWireProtocol(4)  # type: ignore[abstract]

    def test_epoch_windowed_plan_accepted(self) -> None:
        plan = FaultPlan(
            bursts=(BurstLoss(first_epoch=1, last_epoch=1),),
            outages=(NodeOutage(node_id=0, first_epoch=2),),
        )
        orchestrator = EpochOrchestrator(
            SIESProtocol(4, seed=1),
            build_complete_tree(4, 2),
            DomainScaledWorkload(4, scale=100, seed=1),
            ClusterConfig(plan=plan),
        )
        edge = EdgeClass.SOURCE_TO_AGGREGATOR
        assert orchestrator.injector.data_verdict(1, 5, edge, 1, 0).lost
        assert orchestrator.injector.data_verdict(1, 0, edge, 2, 0).lost

    def test_invalid_knobs_rejected(self) -> None:
        with pytest.raises(Exception):
            ClusterConfig(num_epochs=0)
        with pytest.raises(Exception):
            ClusterConfig(window=0)
        with pytest.raises(SimulationError):
            ClusterConfig(hold_time=0.0)
        with pytest.raises(SimulationError):
            ClusterConfig(querier_slack=-1.0)

    def test_run_is_one_shot(self) -> None:
        orchestrator = EpochOrchestrator(
            SIESProtocol(2, seed=1),
            build_complete_tree(2, 2),
            DomainScaledWorkload(2, scale=100, seed=1),
            ClusterConfig(num_epochs=1, window=1, plan=FaultPlan.lossless()),
        )
        asyncio.run(orchestrator.run())
        with pytest.raises(SimulationError):
            asyncio.run(orchestrator.run())


@pytest.mark.slow
def test_acceptance_64_sources_100_epochs_20_percent_loss() -> None:
    """The ISSUE's acceptance scenario, asserted end to end."""
    n, epochs, seed, loss = 64, 100, 2011, 0.2
    plan = FaultPlan.uniform_loss(loss)
    tree = build_complete_tree(n, 4)
    protocol = SIESProtocol(n, seed=seed)
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    config = ClusterConfig(num_epochs=epochs, window=8, seed=seed, plan=plan, **SAFE)
    orchestrator = EpochOrchestrator(protocol, tree, workload, config)
    metrics = asyncio.run(orchestrator.run())

    # Every pipelined epoch settled, every accepted value is the exact
    # SUM over that epoch's survivors, and the survivors are exactly the
    # keyed fault schedule's prediction.
    assert metrics.num_epochs == epochs
    for em in metrics.epochs:
        expected = oracle_survivors(tree, plan, config.policy, seed, em.epoch)
        assert em.recovery.survivors == expected
        assert em.accepted, f"epoch {em.epoch}: {em.security_failure}"
        assert em.result is not None and em.result.verified
        assert em.result.value == sum(workload(sid, em.epoch) for sid in expected)
    assert 0 < metrics.delivery_rate() < 1.0  # lossy but recovering
    assert metrics.acceptance_rate() == 1.0

    # Zero silent drops: the conservation laws and per-node error
    # counters account for every frame ever written or swallowed.
    metrics.traffic.check_conservation()
    for node in orchestrator._nodes.values():
        assert node.stream_errors == 0
    assert metrics.traffic.total("drops_injected") > 0
    assert metrics.traffic.total("retransmissions") > 0

    # Byte-exact wire accounting: SIES PSRs are constant-size, so each
    # edge class's traffic counters must equal attempts × their size.
    psr = protocol.create_source(0).initialize(1, 42)
    frame_size = orchestrator.channel.codec.framed_size(psr)
    for edge in EdgeClass:
        c = metrics.traffic.edge(edge)
        assert c.messages == c.attempts > c.retransmissions
        assert c.payload_bytes == c.attempts * psr.wire_size()
        assert c.frame_bytes == c.attempts * frame_size
    # On S-A links the manifest is always a single id, making the whole
    # envelope constant-size too — pin it to the byte.
    sa = metrics.traffic.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    envelope_len = HEADER_LEN + 17 + 4 + frame_size
    assert sa.envelope_bytes == sa.frames_sent * envelope_len

    assert metrics.wall_seconds > 0
    assert metrics.epochs_per_second() > 1.0
    assert metrics.frames_per_second() > 100.0
