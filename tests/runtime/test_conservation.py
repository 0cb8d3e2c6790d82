"""No silent drops on the event runtime: the hop ledger always balances.

Property sweep over random trees × loss × duplication × a
channel-dropping adversary: every run ends with the hop ledger's
conservation laws holding (``run()`` checks them itself; the tests
check again), every late copy the ledger counts is one some epoch
records, and every accepted epoch is the exact SUM over its
survivors.  Plus the regression for copies sent to a down receiver,
which once vanished without a counter or a trace event.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass
from repro.network.topology import build_complete_tree, build_random_tree
from repro.obs import TraceRecorder
from repro.runtime import FaultPlan, LinkProfile, NodeOutage, RuntimeConfig, RuntimeSimulator


class EveryNthDropper:
    """Channel adversary swallowing every *n*-th physical transmission."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, message, edge):
        self.seen += 1
        return None if self.seen % self.n == 0 else message


@pytest.mark.parametrize("seed", [3, 29])
@pytest.mark.parametrize("adversary", [False, True], ids=["clean", "dropper"])
@pytest.mark.parametrize("duplicate", [0.0, 0.3])
@pytest.mark.parametrize("loss", [0.0, 0.2, 0.55])
def test_conservation_and_exact_sums_hold(
    loss: float, duplicate: float, adversary: bool, seed: int
) -> None:
    n = 12
    tree = build_random_tree(n, max_fanout=3, seed=seed)
    workload = UniformWorkload(n, 0, 200, seed=seed)
    plan = FaultPlan(default_profile=LinkProfile(loss_rate=loss, duplicate_rate=duplicate))
    sim = RuntimeSimulator(
        SIESProtocol(num_sources=n, seed=seed),
        tree,
        workload,
        RuntimeConfig(num_epochs=4, plan=plan, seed=seed),
    )
    dropper = EveryNthDropper(5)
    if adversary:
        sim.channel.add_interceptor(dropper)
    metrics = sim.run()

    ledger = metrics.transport
    ledger.check_conservation()
    assert sum(em.late_arrivals for em in metrics.epochs) == ledger.total("late_frames")
    if adversary:
        assert ledger.total("drops_channel") == dropper.seen // 5 > 0
    else:
        assert ledger.total("drops_channel") == 0
    for em in metrics.epochs:
        if em.accepted:
            assert em.result is not None and em.result.verified
            expected = sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
            assert em.result.value == expected
        else:
            assert em.security_failure in ("MessageLost", "NoResult")


@pytest.mark.parametrize("seed", [3, 29])
@pytest.mark.parametrize("loss", [0.2, 0.55])
def test_late_copies_balance_against_the_ledger(loss: float, seed: int) -> None:
    """The sweep above rarely misses a deadline; a 20-tick hold does, and
    every late copy the ledger counts must be one some epoch records."""
    n = 12
    sim = RuntimeSimulator(
        SIESProtocol(num_sources=n, seed=seed),
        build_random_tree(n, max_fanout=3, seed=seed),
        UniformWorkload(n, 0, 200, seed=seed),
        RuntimeConfig(
            num_epochs=6, plan=FaultPlan.uniform_loss(loss), hold_time=20.0, seed=seed
        ),
    )
    metrics = sim.run()
    late = metrics.transport.total("late_frames")
    assert late > 0
    assert sum(em.late_arrivals for em in metrics.epochs) == late


def test_copy_sent_to_a_down_receiver_is_counted_and_traced() -> None:
    """Every attempt towards a down aggregator shows up in the ledger
    and the trace as a drop — none disappears between the two."""
    n = 16
    tree = build_complete_tree(n, fanout=4)
    aggregator = tree.parent(0)
    assert aggregator is not None
    plan = FaultPlan(
        default_profile=LinkProfile(loss_rate=0.0, latency=1.0, jitter=0.0),
        outages=(NodeOutage(node_id=aggregator, first_epoch=1, last_epoch=1),),
    )
    recorder = TraceRecorder(substrate="runtime")
    sim = RuntimeSimulator(
        SIESProtocol(num_sources=n, seed=7),
        tree,
        UniformWorkload(n, 0, 500, seed=7),
        RuntimeConfig(num_epochs=2, plan=plan, seed=7, observer=recorder),
    )
    metrics = sim.run()

    towards = recorder.filter(epoch=1, node=aggregator, edge="S-A")
    attempts = [e for e in towards if e.kind == "attempt" and e.receiver == aggregator]
    drops = [e for e in towards if e.kind == "drop" and e.receiver == aggregator]
    assert attempts, "the down aggregator's children never tried to reach it"
    assert len(drops) == len(attempts)
    assert not [e for e in towards if e.kind in ("deliver", "late", "duplicate")]
    c = metrics.transport.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert c.drops_injected == len(drops)  # the lossless plan drops nothing else
    metrics.transport.check_conservation()
    assert metrics.epochs[0].recovery.lost == frozenset(tree.leaves_under(aggregator))
    assert metrics.epochs[1].recovery.complete
