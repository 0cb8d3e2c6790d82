"""A forged frame-header epoch on internal edges, on all three substrates.

The frame header's epoch is plaintext and attacker-writable.  On the
querier edge SIES ignores it (``test_epoch_forgery_alone_is_harmless``);
on a source→aggregator or aggregator→aggregator hop the aggregator role
refuses to merge a PSR whose header names another epoch.  Hold-and-wait
therefore never hands it one: the copy counts as a decode failure, its
subtree is lost for that epoch, and the run goes on.  Every epoch must
end exact over its survivors, or rejected, or lost — never accepted
wrong, and never as an exception out of the run.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.attacks.wire import HeaderForgeryAttack
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.network.channel import EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import MetricsRegistry, TraceRecorder, publish_network_metrics
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator

N = 16
FANOUT = 4
EPOCHS = 4
SEED = 3
LOSS = 0.2


def _workload(sid: int, epoch: int) -> int:
    return 10 * sid + epoch


def _every_frame():
    return HeaderForgeryAttack("epoch", edge_class=None)


def _some_source_frames():
    """Forges the header of about a third of the source frames.

    The choice is a function of the frame's bytes, so every attempt of
    a parcel (retransmissions replay the same bytes) is forged alike.
    """
    forge = HeaderForgeryAttack("epoch", edge_class=EdgeClass.SOURCE_TO_AGGREGATOR)
    return lambda frame, edge: forge(frame, edge) if frame[-1] % 3 == 0 else frame


def _analytic(attack):
    simulator = NetworkSimulator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        SimulationConfig(num_epochs=EPOCHS),
    )
    simulator.channel.add_frame_interceptor(attack)
    metrics = simulator.run()
    return metrics.epochs, metrics.traffic


def _runtime(attack):
    simulator = RuntimeSimulator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        RuntimeConfig(num_epochs=EPOCHS, seed=SEED, plan=FaultPlan.uniform_loss(LOSS)),
    )
    simulator.channel.add_frame_interceptor(attack)
    metrics = simulator.run()
    return metrics.epochs, metrics.transport


def _cluster(attack):
    orchestrator = EpochOrchestrator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        ClusterConfig(num_epochs=EPOCHS, seed=SEED, plan=FaultPlan.uniform_loss(LOSS)),
    )
    orchestrator.channel.add_frame_interceptor(attack)
    metrics = asyncio.run(orchestrator.run())
    return metrics.epochs, metrics.traffic


@pytest.mark.parametrize(
    "substrate",
    [_analytic, _runtime, pytest.param(_cluster, marks=pytest.mark.cluster)],
    ids=["analytic", "runtime", "cluster"],
)
@pytest.mark.parametrize(
    "attack", [_every_frame, _some_source_frames], ids=["every-frame", "some-sources"]
)
def test_a_forged_header_epoch_costs_epochs_not_the_run(substrate, attack) -> None:
    epochs, ledger = substrate(attack())
    ledger.check_conservation()
    assert [record.epoch for record in epochs] == list(range(1, EPOCHS + 1))
    for record in epochs:
        survivors = record.recovery.survivors
        if record.accepted:
            assert record.result is not None
            assert record.result.value == sum(_workload(sid, record.epoch) for sid in survivors)
        else:
            assert record.security_failure in {"MessageLost", "VerificationFailure"}
    if attack is _every_frame:
        assert all(record.security_failure == "MessageLost" for record in epochs)
    elif substrate is _analytic:
        # No ARQ counts arrivals here: the refused copies are counted by
        # the channel's receiver half.
        assert ledger.total("channel_decode_failures") > 0
    else:
        # Forged copies are first copies the transport delivered, and the
        # epoch machine refused them.
        assert ledger.total("decode_failures") > 0
        assert any(record.accepted for record in epochs)


def test_analytic_trace_names_every_refused_copy() -> None:
    """Each copy hold-and-wait refused is traced as ``decode_failure``,
    not ``deliver``, and counted once in the ledger."""
    recorder = TraceRecorder("analytic")
    simulator = NetworkSimulator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        SimulationConfig(num_epochs=EPOCHS, observer=recorder),
    )
    simulator.channel.add_frame_interceptor(_some_source_frames())
    metrics = simulator.run()
    metrics.traffic.check_conservation()
    kinds = Counter(event.kind for event in recorder.events)
    refused = metrics.traffic.total("channel_decode_failures")
    assert refused > 0
    assert kinds["decode_failure"] == refused
    assert kinds["attempt"] == kinds["deliver"] + kinds["decode_failure"]
    assert kinds["attempt"] == metrics.traffic.total("messages")
    registry = MetricsRegistry()
    publish_network_metrics(metrics, registry)
    series = registry.get("sies_decode_failures_total")
    assert series.value(substrate="network", edge=EdgeClass.SOURCE_TO_AGGREGATOR.value) == refused
