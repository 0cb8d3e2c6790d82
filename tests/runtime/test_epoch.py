"""The epoch machine, driven by hand: no scheduler, no sockets.

Most tests play the driver's part explicitly — open the epoch, offer the
copies a network would deliver, fire the deadlines — so every
hold-and-wait and settlement decision is checked apart from either
substrate.  The :class:`EpochDriver` tests hand the one driver a fake
timer that records ``(delay, fn)`` pairs and a ``send`` that records
every hop, then play the network: deliver copies, fire deadlines.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.errors import SimulationError
from repro.network.ledger import EdgeClass
from repro.network.messages import QUERIER_NODE_ID
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import (
    AggregationTree,
    TreeNode,
    build_chain_tree,
    build_complete_tree,
    build_random_tree,
)
from repro.runtime.epoch import (
    EpochDriver,
    EpochPlanner,
    HoldAndWait,
    QuerierEpochs,
    node_heights,
)
from repro.runtime.faults import FaultPlan, KeyedFaultInjector, LinkProfile, NodeOutage
from repro.runtime.transport import DELIVERED, LATE, RetransmitPolicy, parcel_fate
from repro.runtime.simulator import RuntimeConfig, RuntimeSimulator

N = 4
PROTOCOL = SIESProtocol(N, seed=3)
VALUES = {0: 11, 1: 22, 2: 33, 3: 44}


def psr(sid: int, epoch: int = 1):
    return PROTOCOL.create_source(sid).initialize(epoch, VALUES[sid])


class CountingAggregator:
    """An aggregator role that records every merge and finalize call."""

    def __init__(self) -> None:
        self.role = PROTOCOL.create_aggregator()
        self.merges: list[int] = []
        self.finalized = 0

    def merge(self, epoch, psrs):
        self.merges.append(len(psrs))
        return self.role.merge(epoch, psrs)

    def finalize_for_querier(self, merged):
        self.finalized += 1
        return self.role.finalize_for_querier(merged)


def test_inbox_is_complete_the_moment_the_expected_count_arrives() -> None:
    merger = HoldAndWait(10, PROTOCOL.create_aggregator(), is_root=False)
    merger.open(1, expected=2)
    assert merger.offer(1, psr(0), frozenset({0})) == (DELIVERED, False)
    assert merger.offer(1, psr(1), frozenset({1})) == (DELIVERED, True)
    forward = merger.close(1)
    assert forward is not None and forward[1] == frozenset({0, 1})


def test_deadline_merge_of_a_partial_inbox_forwards_the_manifest_union() -> None:
    role = CountingAggregator()
    merger = HoldAndWait(10, role, is_root=False)
    merger.open(1, expected=3)
    assert merger.offer(1, psr(0), frozenset({0})) == (DELIVERED, False)
    assert merger.offer(1, psr(2), frozenset({2, 3})) == (DELIVERED, False)
    merged, manifest = merger.close(1)
    assert manifest == frozenset({0, 2, 3})
    assert role.merges == [2]
    assert merged == PROTOCOL.create_aggregator().merge(1, [psr(0), psr(2)])


def test_an_empty_inbox_forwards_nothing() -> None:
    role = CountingAggregator()
    merger = HoldAndWait(10, role, is_root=True)
    merger.open(1, expected=2)
    assert merger.close(1) is None
    assert role.merges == [] and role.finalized == 0


def test_a_copy_after_close_is_late_and_counted() -> None:
    merger = HoldAndWait(10, PROTOCOL.create_aggregator(), is_root=False)
    merger.open(1, expected=2)
    merger.offer(1, psr(0), frozenset({0}))
    merger.close(1)
    assert merger.offer(1, psr(1), frozenset({1})) == (LATE, False)
    # An epoch this aggregator never held an inbox for is late too.
    assert merger.offer(7, psr(1, 7), frozenset({1})) == (LATE, False)
    assert merger.late == {1: 1, 7: 1}


def test_a_second_close_does_nothing() -> None:
    role = CountingAggregator()
    merger = HoldAndWait(10, role, is_root=True)
    merger.open(1, expected=1)
    merger.offer(1, psr(0), frozenset({0}))
    assert merger.close(1) is not None
    assert merger.close(1) is None
    assert role.merges == [1] and role.finalized == 1


def test_reopening_an_open_epoch_is_rejected() -> None:
    merger = HoldAndWait(10, PROTOCOL.create_aggregator(), is_root=False)
    merger.open(1, expected=1)
    with pytest.raises(SimulationError):
        merger.open(1, expected=1)


@pytest.mark.parametrize("is_root", [False, True])
def test_finalize_for_querier_runs_once_and_only_at_the_root(is_root: bool) -> None:
    role = CountingAggregator()
    merger = HoldAndWait(10, role, is_root=is_root)
    for epoch in (1, 2):
        merger.open(epoch, expected=2)
        merger.offer(epoch, psr(0, epoch), frozenset({0}))
        merger.offer(epoch, psr(1, epoch), frozenset({1}))
        merger.close(epoch)
        merger.close(epoch)
    assert role.merges == [2, 2]
    assert role.finalized == (2 if is_root else 0)


def test_a_final_psr_settles_with_the_exact_sum_over_its_manifest() -> None:
    root = HoldAndWait(10, PROTOCOL.create_aggregator(), is_root=True)
    root.open(1, expected=4)
    for sid in (0, 2, 3):  # source 1's copy never arrives
        root.offer(1, psr(sid), frozenset({sid}))
    merged, manifest = root.close(1)

    querier = QuerierEpochs(PROTOCOL.create_querier(), num_sources=N)
    querier.open(1, frozenset(range(N)), frozenset(), started_at=100.0)
    assert querier.offer(1, merged, manifest, now=142.5) == DELIVERED
    record = querier.expire(1)
    assert record.accepted and record.result.verified
    assert record.result.value == VALUES[0] + VALUES[2] + VALUES[3]
    assert record.recovery.survivors == frozenset({0, 2, 3})
    assert record.recovery.lost == frozenset({1})
    assert record.completion_latency == 42.5


def test_full_manifest_evaluates_over_all_sources() -> None:
    root = HoldAndWait(10, PROTOCOL.create_aggregator(), is_root=True)
    root.open(1, expected=N)
    for sid in range(N):
        root.offer(1, psr(sid), frozenset({sid}))
    merged, manifest = root.close(1)
    querier = QuerierEpochs(PROTOCOL.create_querier(), num_sources=N)
    querier.open(1, frozenset(range(N)), frozenset(), started_at=0.0)
    querier.offer(1, merged, manifest, now=1.0)
    record = querier.records[1]
    assert record.recovery.complete and record.result.value == sum(VALUES.values())


def test_late_final_psr_after_expiry_and_expiry_after_settlement() -> None:
    merged = PROTOCOL.create_aggregator().merge(1, [psr(0)])
    querier = QuerierEpochs(PROTOCOL.create_querier(), num_sources=N)
    querier.open(1, frozenset({0}), frozenset({1, 2, 3}), started_at=0.0)
    lost = querier.expire(1)
    assert lost.security_failure == "MessageLost" and not lost.accepted
    assert lost.completion_latency == 0.0
    assert querier.offer(1, merged, frozenset({0}), now=9.0) == LATE
    assert querier.records[1] is lost and querier.late == {1: 1}

    querier.open(2, frozenset({0}), frozenset({1, 2, 3}), started_at=0.0)
    assert querier.offer(2, PROTOCOL.create_aggregator().merge(2, [psr(0, 2)]),
                         frozenset({0}), now=3.0) == DELIVERED
    settled = querier.records[2]
    assert querier.expire(2) is settled and settled.accepted
    assert querier.offer(2, merged, frozenset({0}), now=4.0) == LATE
    assert querier.late == {1: 1, 2: 1}


def test_message_lost_versus_no_result() -> None:
    querier = QuerierEpochs(PROTOCOL.create_querier(), num_sources=N)
    querier.open(1, frozenset({0, 1}), frozenset({2, 3}), started_at=0.0)
    querier.open(2, frozenset(), frozenset(range(N)), started_at=0.0)
    assert querier.expire(1).security_failure == "MessageLost"
    assert querier.expire(2).security_failure == "NoResult"
    assert querier.expire(2).recovery.pre_failed == frozenset(range(N))


def test_querier_rejects_reopening_and_unknown_epochs() -> None:
    querier = QuerierEpochs(PROTOCOL.create_querier(), num_sources=N)
    querier.open(1, frozenset({0}), frozenset(), started_at=0.0)
    with pytest.raises(SimulationError):
        querier.open(1, frozenset({0}), frozenset(), started_at=0.0)
    with pytest.raises(SimulationError):
        querier.expire(5)


def reference_heights(tree) -> dict[int, int]:
    """Height as the longest walk from any source up to the node."""
    heights = {node_id: 0 for node_id in (*tree.source_ids, *tree.aggregator_ids)}
    for sid in tree.source_ids:
        distance, node = 0, tree.parent(sid)
        while node is not None:
            distance += 1
            heights[node] = max(heights[node], distance)
            node = tree.parent(node)
    return heights


def check_plan(tree, failed: frozenset[int], faults: FaultPlan, epoch: int) -> None:
    planner = EpochPlanner(
        tree, hold_time=7.0, querier_slack=3.0, failed_sources=failed, faults=faults
    )
    heights = node_heights(tree, tree.bottom_up_aggregators())
    assert heights == reference_heights(tree)
    assert planner.merge_offset == {aid: 7.0 * heights[aid] for aid in tree.aggregator_ids}
    assert planner.querier_offset == 7.0 * (heights[tree.root_id] + 1) + 3.0

    plan = planner.plan(epoch)
    down = {sid for sid in tree.source_ids if faults.node_down(sid, epoch)}
    assert plan.attempted == frozenset(tree.source_ids) - failed - down
    assert plan.pre_failed == frozenset(tree.source_ids) - plan.attempted
    live = {
        aid for aid in tree.aggregator_ids
        if any(sid in plan.attempted for sid in tree.leaves_under(aid))
    }
    assert set(plan.expected) == live
    for aid in live:
        assert plan.expected[aid] == sum(
            1 for child in tree.children(aid) if child in plan.attempted or child in live
        )
    assert list(plan.expected) == [a for a in tree.bottom_up_aggregators() if a in live]


def test_plan_on_a_chain_tree() -> None:
    tree = build_chain_tree(6)
    heights = node_heights(tree, tree.bottom_up_aggregators())
    assert heights[tree.root_id] == 5
    assert sorted(heights[aid] for aid in tree.aggregator_ids) == [1, 2, 3, 4, 5]
    faults = FaultPlan(outages=(NodeOutage(node_id=5, first_epoch=2, last_epoch=2),))
    # Sources 4 and 5 share the deepest aggregator: with 4 failed and 5
    # down in epoch 2 that aggregator is not live, and its parent expects
    # only its own source.
    check_plan(tree, frozenset({4}), faults, epoch=2)
    plan = EpochPlanner(
        tree, hold_time=1.0, querier_slack=0.0, failed_sources=frozenset({4}), faults=faults
    ).plan(2)
    deepest = tree.parent(5)
    assert deepest not in plan.expected
    assert plan.expected[tree.parent(deepest)] == 1
    check_plan(tree, frozenset({4}), faults, epoch=3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plan_on_a_random_tree(seed: int) -> None:
    tree = build_random_tree(23, max_fanout=4, seed=seed)
    faults = FaultPlan(outages=(NodeOutage(node_id=seed, first_epoch=1, last_epoch=1),))
    check_plan(tree, frozenset(), FaultPlan.lossless(), epoch=1)
    check_plan(tree, frozenset({0, 7, 8, 9, 10, 11}), faults, epoch=1)
    check_plan(tree, frozenset(tree.source_ids), faults, epoch=1)


def reference_plan(tree, failed: frozenset[int], faults: FaultPlan, epoch: int):
    """The plan by definition: ask every source, then every aggregator."""
    attempted = frozenset(
        sid for sid in tree.source_ids
        if sid not in failed and not faults.node_down(sid, epoch)
    )
    live = {
        aid for aid in tree.aggregator_ids
        if any(sid in attempted for sid in tree.leaves_under(aid))
    }
    expected = {
        aid: sum(1 for child in tree.children(aid) if child in attempted or child in live)
        for aid in tree.bottom_up_aggregators()
        if aid in live
    }
    return attempted, frozenset(tree.source_ids) - attempted, expected


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_plan_matches_the_per_source_definition_over_random_outages(seed: int) -> None:
    rng = random.Random(seed)
    tree = build_random_tree(31, max_fanout=4, seed=seed)
    nodes = [*tree.source_ids, *tree.aggregator_ids]
    # Outages on sources and aggregators alike; an aggregator outage
    # never changes who attempts.
    outages = tuple(
        NodeOutage(rng.choice(nodes), first, first + rng.randrange(3))
        for first in (rng.randrange(1, 16) for _ in range(rng.randrange(1, 12)))
    )
    faults = FaultPlan(outages=outages)
    shapes = set()
    for failed in (frozenset(), frozenset(rng.sample(tree.source_ids, 2))):
        planner = EpochPlanner(
            tree, hold_time=1.0, querier_slack=0.0, failed_sources=failed, faults=faults
        )
        for epoch in range(1, 20):
            attempted, pre_failed, expected = reference_plan(tree, failed, faults, epoch)
            plan = planner.plan(epoch)
            assert plan.attempted == attempted and plan.pre_failed == pre_failed
            assert list(plan.expected.items()) == list(expected.items())  # bottom-up order
            shapes.add(bool(pre_failed))
    assert shapes == {False, True}, "both the full plan and the walk must run"
    # Epochs without a down source share one plan, precomputed once.
    clean = EpochPlanner(
        tree, hold_time=1.0, querier_slack=0.0, failed_sources=frozenset(), faults=FaultPlan()
    )
    assert clean.plan(1) is clean.plan(2)
    attempted, pre_failed, expected = reference_plan(tree, frozenset(), FaultPlan(), 3)
    plan = clean.plan(3)
    assert (plan.attempted, plan.pre_failed, plan.expected) == (attempted, pre_failed, expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_predict_is_the_per_source_path_walk(seed: int) -> None:
    """A source survives iff it attempts and every hop on its path up
    delivers; the parcels are the attempted sources and every aggregator
    that a delivered hop reached, each charged its ``parcel_fate`` attempts."""
    rng = random.Random(seed)
    tree = build_random_tree(31, max_fanout=4, seed=seed)
    nodes = [*tree.source_ids, *tree.aggregator_ids]
    faults = FaultPlan(
        default_profile=LinkProfile(loss_rate=0.45),
        outages=tuple(NodeOutage(rng.choice(nodes), e, e + 1) for e in rng.sample(range(1, 9), 3)),
    )
    failed = frozenset(rng.sample(tree.source_ids, 2))
    planner = EpochPlanner(
        tree, hold_time=1.0, querier_slack=0.0, failed_sources=failed, faults=faults
    )
    injector = KeyedFaultInjector(faults, seed=seed)
    policy = RetransmitPolicy(max_retries=2)
    lossy = 0
    for epoch in range(1, 10):

        def fate(node: int) -> tuple[bool, int]:
            receiver, edge = planner.uplink[node]
            return parcel_fate(injector, policy, node, receiver, edge, epoch)

        attempted = planner.plan(epoch).attempted
        survivors, senders = set(), set(attempted)
        for sid in attempted:
            node, path_ok = sid, fate(sid)[0]
            while path_ok and tree.parent(node) is not None:
                node = tree.parent(node)
                senders.add(node)
                path_ok = fate(node)[0]
            if path_ok:
                survivors.add(sid)
        prediction = planner.predict(epoch, injector, policy)
        assert prediction.survivors == survivors
        assert prediction.parcels == len(senders)
        assert prediction.attempts == sum(fate(node)[1] for node in senders)
        lossy += len(survivors) < len(attempted)
    assert lossy, "45 % loss lost no source: the walk is vacuous"


def test_uplink_table_names_every_hop_and_its_edge_class() -> None:
    tree = build_random_tree(17, max_fanout=3, seed=9)
    planner = EpochPlanner(
        tree, hold_time=1.0, querier_slack=0.0, failed_sources=frozenset(), faults=FaultPlan()
    )
    assert set(planner.uplink) == {node.node_id for node in tree}
    for sid in tree.source_ids:
        assert planner.uplink[sid] == (tree.parent(sid), EdgeClass.SOURCE_TO_AGGREGATOR)
    for aid in tree.aggregator_ids:
        expected = (
            (QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER)
            if aid == tree.root_id
            else (tree.parent(aid), EdgeClass.AGGREGATOR_TO_AGGREGATOR)
        )
        assert planner.uplink[aid] == expected


@pytest.mark.parametrize(
    "substrate", [NetworkSimulator, RuntimeSimulator, EpochOrchestrator],
    ids=["analytic", "runtime", "cluster"],
)
def test_a_source_at_the_root_is_rejected_at_construction(substrate) -> None:
    tree = AggregationTree([TreeNode(0, is_source=True)])
    with pytest.raises(SimulationError, match="source 0 has no parent aggregator"):
        substrate(SIESProtocol(1, seed=1), tree, lambda sid, epoch: 7)


@pytest.mark.parametrize(
    ("substrate", "config"),
    [
        (NetworkSimulator, SimulationConfig),
        (RuntimeSimulator, RuntimeConfig),
        (EpochOrchestrator, ClusterConfig),
    ],
    ids=["analytic", "runtime", "cluster"],
)
@pytest.mark.parametrize("unknown", [99, -1, 16], ids=["past-the-end", "negative", "aggregator"])
def test_failed_sources_naming_no_source_are_rejected_at_construction(
    substrate, config, unknown: int
) -> None:
    """An id that is no source of the tree would otherwise be ignored: the
    epoch would pass as if every source had reported."""
    tree = build_complete_tree(16, 4)  # aggregators are 16 … 20
    with pytest.raises(SimulationError, match=rf"not sources of the tree: \[{unknown}\]"):
        substrate(
            SIESProtocol(16, seed=1),
            tree,
            lambda sid, epoch: 7,
            config(failed_sources=frozenset({3, unknown})),
        )


# ----------------------------------------------------------------------
# EpochDriver on a fake timer
# ----------------------------------------------------------------------

#: build_complete_tree(4, 2): sources 0, 1 under aggregator 4, sources
#: 2, 3 under aggregator 5, both under the root 6.
TREE = build_complete_tree(N, 2)
HOLD, SLACK = 10.0, 5.0
S_A, A_A, A_Q = (
    EdgeClass.SOURCE_TO_AGGREGATOR,
    EdgeClass.AGGREGATOR_TO_AGGREGATOR,
    EdgeClass.AGGREGATOR_TO_QUERIER,
)


class Harness:
    """One driver over TREE with a fake timer, a recording send and
    a recording settlement hook."""

    def __init__(self, *, failed: frozenset[int] = frozenset()) -> None:
        self.now = 0.0
        #: Every ``call_later`` the driver made, in order.
        self.armed: list[tuple[float, object]] = []
        #: Every ``send(sender, receiver, edge, epoch, psr, manifest)``.
        self.sent: list[tuple] = []
        self.settled = []
        self.driver = EpochDriver(
            EpochPlanner(
                TREE, hold_time=HOLD, querier_slack=SLACK, failed_sources=failed,
                faults=FaultPlan(),
            ),
            lambda sid, epoch: VALUES[sid],
            sources={sid: PROTOCOL.create_source(sid) for sid in TREE.source_ids},
            aggregators={aid: PROTOCOL.create_aggregator() for aid in TREE.aggregator_ids},
            querier=PROTOCOL.create_querier(),
            now=lambda: self.now,
            call_later=lambda delay, fn: self.armed.append((delay, fn)),
            send=lambda *hop: self.sent.append(hop),
            on_settled=self.settled.append,
        )

    def deliver_sent(self, index: int) -> str:
        """Deliver the copy of ``sent[index]`` to its receiver."""
        _, receiver, _, epoch, psr, manifest = self.sent[index]
        return self.driver.deliver(receiver, epoch, psr, manifest)

    def fire(self, delay: float) -> None:
        """Fire every armed timer of *delay* (in arming order)."""
        for armed, fn in list(self.armed):
            if armed == delay:
                fn()


def merged(epoch: int, sids) -> object:
    return PROTOCOL.create_aggregator().merge(epoch, [psr(sid, epoch) for sid in sids])


def test_start_sends_every_source_then_arms_merges_in_plan_order_then_the_querier() -> None:
    h = Harness()
    h.driver.start(1)
    assert h.sent == [
        (sid, TREE.parent(sid), S_A, 1, psr(sid), frozenset({sid})) for sid in TREE.source_ids
    ]
    # Merge deadlines in plan.expected (bottom-up) order, then the querier.
    assert [delay for delay, _ in h.armed] == [HOLD, HOLD, 2 * HOLD, 3 * HOLD + SLACK]


def test_an_early_merge_forwards_at_once() -> None:
    h = Harness()
    h.driver.start(1)
    assert h.deliver_sent(0) == DELIVERED
    assert len(h.sent) == N  # aggregator 4 still waits for source 1
    assert h.deliver_sent(1) == DELIVERED
    # Its inbox is complete: it merged and forwarded without a deadline.
    assert h.sent[N] == (4, 6, A_A, 1, merged(1, [0, 1]), frozenset({0, 1}))
    # Its deadline, firing later, finds the inbox closed and sends nothing.
    h.fire(HOLD)
    assert len(h.sent) == N + 1


def test_a_deadline_merge_forwards_the_manifest_union_of_a_partial_inbox() -> None:
    h = Harness()
    h.driver.start(1)
    for index in (0, 2, 3):  # source 1's copy never arrives
        h.deliver_sent(index)
    assert [hop[0] for hop in h.sent[N:]] == [5]  # only aggregator 5 was complete
    h.fire(HOLD)
    assert h.sent[N + 1] == (4, 6, A_A, 1, merged(1, [0]), frozenset({0}))
    # The root completes with both children and forwards to the querier.
    h.deliver_sent(N)
    h.deliver_sent(N + 1)
    sender, receiver, edge, epoch, final, manifest = h.sent[N + 2]
    assert (sender, receiver, edge, epoch) == (6, QUERIER_NODE_ID, A_Q, 1)
    assert manifest == frozenset({0, 2, 3})
    h.now = 17.0
    assert h.deliver_sent(N + 2) == DELIVERED
    [record] = h.settled
    assert record.accepted and record.result.value == VALUES[0] + VALUES[2] + VALUES[3]
    assert record.recovery.lost == frozenset({1})
    assert record.completion_latency == 17.0
    # The querier's expiry finds the epoch settled: no second settlement.
    h.fire(3 * HOLD + SLACK)
    assert h.settled == [record]


def test_a_dead_subtree_forwards_nothing() -> None:
    h = Harness(failed=frozenset({0, 1}))
    h.driver.start(1)
    assert [hop[0] for hop in h.sent] == [2, 3]
    # Aggregator 4 is not live: no inbox, no deadline.
    assert [delay for delay, _ in h.armed] == [HOLD, 2 * HOLD, 3 * HOLD + SLACK]
    # A live aggregator whose children all got lost forwards nothing either.
    h.fire(HOLD)
    h.fire(2 * HOLD)
    assert len(h.sent) == 2
    h.fire(3 * HOLD + SLACK)
    [record] = h.settled
    assert record.security_failure == "MessageLost"
    assert record.recovery.pre_failed == frozenset({0, 1})


@pytest.mark.parametrize(
    "failed, verdict",
    [(frozenset({1}), "MessageLost"), (frozenset(range(N)), "NoResult")],
    ids=["attempted", "all-failed"],
)
def test_querier_expiry_settles_message_lost_or_no_result(failed, verdict) -> None:
    h = Harness(failed=failed)
    h.driver.start(1)
    h.fire(3 * HOLD + SLACK)
    [record] = h.settled
    assert record.security_failure == verdict and not record.accepted
    assert record.recovery.attempted == frozenset(range(N)) - failed
    assert h.driver.records() == [record]


def test_a_copy_arriving_after_the_merge_is_late() -> None:
    h = Harness()
    h.driver.start(1)
    h.deliver_sent(0)
    h.fire(HOLD)  # aggregator 4 merges source 0 alone; 5 has nothing
    assert h.sent[N] == (4, 6, A_A, 1, merged(1, [0]), frozenset({0}))
    assert h.deliver_sent(1) == LATE
    assert h.deliver_sent(2) == LATE
    assert h.deliver_sent(N) == DELIVERED
    h.fire(2 * HOLD)  # the root merges what it has and forwards it
    assert h.sent[N + 1][:3] == (6, QUERIER_NODE_ID, A_Q)
    h.fire(3 * HOLD + SLACK)  # ...but the querier's deadline passes first
    assert h.deliver_sent(N + 1) == LATE
    [record] = h.driver.records()
    assert record.security_failure == "MessageLost"
    assert record.late_arrivals == 3  # two at the aggregators, one at the querier
