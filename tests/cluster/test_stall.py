"""A stalled event loop delays the cluster's decisions, never changes one.

One PSR interceptor sleeps longer than the merge-deadline spacing, once,
in the middle of a pipelined 64-source run at 20 % loss.  While it
sleeps, ACK timeouts and merge deadlines of every epoch in flight fall
due on the loop clock.  On the cluster's scheduled clock each of them
still waits for the frames written before it, so every epoch's survivor
set and the run's ARQ attempts are what the keyed fault schedule
predicts (:meth:`repro.runtime.epoch.EpochPlanner.predict`).  Deciding
timers in loop-clock order instead loses copies that were on the wire
in time: that fails this test in several epochs on each seed below.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.channel import EdgeClass
from repro.network.messages import DataMessage
from repro.network.topology import build_complete_tree
from repro.runtime import FaultPlan
from repro.runtime.faults import KeyedFaultInjector

pytestmark = pytest.mark.cluster

#: The end-to-end tests' deadlines: 0.5 s per tree level.
SAFE = dict(hold_time=0.5, querier_slack=0.5)
STALL_EPOCH = 9


@pytest.mark.parametrize("seed", [2011, 3])
def test_a_loop_stall_longer_than_the_hold_changes_no_outcome(seed: int) -> None:
    n, epochs = 64, 24
    plan = FaultPlan.uniform_loss(0.2)
    tree = build_complete_tree(n, 4)
    workload = DomainScaledWorkload(n, scale=100, seed=seed)
    config = ClusterConfig(num_epochs=epochs, window=8, seed=seed, plan=plan, **SAFE)
    orchestrator = EpochOrchestrator(SIESProtocol(n, seed=seed), tree, workload, config)
    stalls: list[float] = []

    def stall_once(message: DataMessage, edge: EdgeClass) -> DataMessage:
        if message.epoch == STALL_EPOCH and not stalls:
            started = time.monotonic()
            time.sleep(config.hold_time + 0.1)
            stalls.append(time.monotonic() - started)
        return message

    orchestrator.channel.add_interceptor(stall_once)
    metrics = asyncio.run(orchestrator.run())

    assert len(stalls) == 1 and stalls[0] > config.hold_time
    injector = KeyedFaultInjector(plan, seed=seed)
    fates = {
        epoch: orchestrator._planner.predict(epoch, injector, config.policy)
        for epoch in range(1, epochs + 1)
    }
    assert [em.epoch for em in metrics.epochs] == list(fates)
    diverged = {
        em.epoch: (sorted(fates[em.epoch].survivors ^ em.recovery.survivors), em.late_arrivals)
        for em in metrics.epochs
        if em.recovery.survivors != fates[em.epoch].survivors
    }
    assert diverged == {}, f"epoch: (sources off the prediction, late copies) {diverged}"
    assert metrics.traffic.total("attempts") == sum(fate.attempts for fate in fates.values())
    for em in metrics.epochs:
        assert em.accepted and em.result is not None
        assert em.result.value == sum(workload(sid, em.epoch) for sid in em.recovery.survivors)
