"""Tracing the analytic simulator: hop capture, queries, round-tripping.

A :class:`~repro.obs.TraceRecorder` passed as ``SimulationConfig.observer``
records every hop as an ``attempt`` :class:`~repro.obs.ObsEvent`
followed by ``deliver`` — or by ``drop`` when the channel (an adversary,
a malformed frame) swallowed it.
"""

from __future__ import annotations

import io

from repro.attacks.adversary import DropAttack, Eavesdropper
from repro.attacks.wire import FrameTruncationAttack
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass
from repro.network.simulator import QUERIER_NODE_ID, NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import ObsEvent, TraceRecorder, trace_dispositions

N = 16


def _simulator(epochs: int = 1, recorder: TraceRecorder | None = None) -> NetworkSimulator:
    protocol = SIESProtocol(N, seed=3)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=4)
    config = SimulationConfig(num_epochs=epochs, observer=recorder)
    return NetworkSimulator(protocol, tree, workload, config)


def _traced_run(epochs: int = 2):
    recorder = TraceRecorder(substrate="network")
    simulator = _simulator(epochs, recorder)
    metrics = simulator.run()
    return recorder, simulator.tree, metrics


def test_captures_every_hop() -> None:
    recorder, tree, _ = _traced_run(epochs=2)
    hops_per_epoch = N + (tree.num_aggregators - 1) + 1
    assert len(recorder.events) == 2 * 2 * hops_per_epoch
    assert recorder.epochs() == [1, 2]
    assert len(recorder.filter(epoch=1, kinds=("attempt",))) == hops_per_epoch
    assert len(recorder.filter(epoch=1, kinds=("deliver",))) == hops_per_epoch
    kinds = [e.kind for e in recorder.events]
    assert kinds == ["attempt", "deliver"] * (2 * hops_per_epoch)
    assert all(e.attempt == 0 and e.uid == e.epoch and e.time is None for e in recorder.events)


def test_sequence_is_strictly_increasing_and_causal() -> None:
    recorder, _, _ = _traced_run(epochs=1)
    sequences = [e.sequence for e in recorder.events]
    assert sequences == sorted(sequences) == list(range(len(sequences)))
    # all source hops precede the final A-Q hop
    final = [e for e in recorder.events if e.receiver == QUERIER_NODE_ID]
    assert [e.kind for e in final] == ["attempt", "deliver"]
    assert all(e.sequence < final[0].sequence for e in recorder.filter(edge="S-A"))


def test_trace_agrees_with_traffic_counters() -> None:
    """One ``attempt`` event per message the ledger counts, edge class by
    edge class — lossless and with an adversary dropping hops (the
    runtime and the cluster: ``tests/obs/test_cross_substrate.py``)."""
    for attack in (None, DropAttack(sender_ids=frozenset({0}))):
        recorder = TraceRecorder(substrate="network")
        simulator = _simulator(epochs=2, recorder=recorder)
        if attack is not None:
            simulator.channel.add_interceptor(attack)
        metrics = simulator.run()
        assert bool(recorder.filter(kinds=("drop",))) == (attack is not None)
        for edge in EdgeClass:
            attempts = recorder.filter(edge=edge.value, kinds=("attempt",))
            assert len(attempts) == metrics.traffic.edge(edge).messages > 0


def test_hops_through_node() -> None:
    recorder, tree, _ = _traced_run(epochs=1)
    aggregator = tree.parent(0)
    hops = recorder.filter(node=aggregator, kinds=("attempt",))
    # receives from its 4 children, sends once upward
    assert sum(1 for e in hops if e.receiver == aggregator) == 4
    assert sum(1 for e in hops if e.sender == aggregator) == 1


def test_ciphertexts_excluded_by_default() -> None:
    """Events carry hop metadata only: no ciphertext reaches the trace."""
    recorder = TraceRecorder(substrate="network")
    simulator = _simulator(epochs=1, recorder=recorder)
    spy = Eavesdropper()
    simulator.channel.add_interceptor(spy)
    simulator.run()
    buffer = io.StringIO()
    recorder.write_jsonl(buffer)
    trace = buffer.getvalue()
    assert recorder.events
    assert not any(str(c) in trace for c in spy.observed_ciphertexts())


def test_jsonl_roundtrip() -> None:
    recorder, _, _ = _traced_run(epochs=1)
    buffer = io.StringIO()
    count = recorder.write_jsonl(buffer)
    assert count == len(recorder.events)
    buffer.seek(0)
    restored = TraceRecorder.read_jsonl(buffer)
    assert restored.events == recorder.events


def test_event_json_big_ints_survive() -> None:
    event = ObsEvent(
        sequence=0, substrate="network", run_id="run-0", kind="attempt", epoch=1,
        edge="S-A", sender=0, receiver=1, uid=1 << 255, attempt=0,
    )
    assert ObsEvent.from_json(event.to_json()) == event


def test_tracing_does_not_perturb_results() -> None:
    _, _, metrics = _traced_run(epochs=2)
    assert metrics.all_verified()


def test_attacked_hops_trace_as_channel_drops() -> None:
    """Regression: a hop the channel swallows is traced as a drop.

    The analytic trace once recorded hops as a PSR interceptor, so a hop
    dropped by a later interceptor showed up as delivered and a frame
    killed by a frame-level attack left no event at all.
    """
    recorder = TraceRecorder(substrate="network")
    simulator = _simulator(epochs=2, recorder=recorder)
    simulator.channel.add_interceptor(DropAttack(sender_ids=frozenset({0})))
    simulator.channel.add_frame_interceptor(FrameTruncationAttack(1))
    metrics = simulator.run()
    assert metrics.security_failures() == [(1, "MessageLost"), (2, "MessageLost")]

    dropped_source = (0, simulator.tree.parent(0))
    dropped_root = (simulator.tree.root_id, QUERIER_NODE_ID)
    for epoch in (1, 2):
        for sender, receiver in (dropped_source, dropped_root):
            hop = recorder.filter(epoch=epoch, node=sender)
            hop = [e for e in hop if (e.sender, e.receiver) == (sender, receiver)]
            assert [(e.kind, e.detail) for e in hop] == [
                ("attempt", None),
                ("drop", "channel"),
            ]
    slices = trace_dispositions(recorder.events)
    assert sorted(slices) == [1, 2]
    for per_epoch in slices.values():
        assert per_epoch["dropped"] == sorted([dropped_source, dropped_root])
