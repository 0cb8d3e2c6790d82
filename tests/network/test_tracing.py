"""Tracing the analytic simulator: hop capture, queries, round-tripping.

The analytic channel is traced by :class:`~repro.obs.ChannelTraceAdapter`
feeding a :class:`~repro.obs.TraceRecorder`; every hop becomes one
``send`` :class:`~repro.obs.ObsEvent`.
"""

from __future__ import annotations

import io

from repro.attacks.adversary import Eavesdropper
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.simulator import QUERIER_NODE_ID, NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import ChannelTraceAdapter, ObsEvent, TraceRecorder

N = 16


def _simulator(epochs: int = 1) -> NetworkSimulator:
    protocol = SIESProtocol(N, seed=3)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=4)
    return NetworkSimulator(protocol, tree, workload, SimulationConfig(num_epochs=epochs))


def _traced_run(epochs: int = 2):
    simulator = _simulator(epochs)
    recorder = TraceRecorder(substrate="network")
    ChannelTraceAdapter(recorder).attach(simulator.channel)
    metrics = simulator.run()
    return recorder, simulator.tree, metrics


def test_captures_every_hop() -> None:
    recorder, tree, _ = _traced_run(epochs=2)
    hops_per_epoch = N + (tree.num_aggregators - 1) + 1
    assert len(recorder.events) == 2 * hops_per_epoch
    assert recorder.epochs() == [1, 2]
    assert len(recorder.filter(epoch=1)) == hops_per_epoch


def test_sequence_is_strictly_increasing_and_causal() -> None:
    recorder, _, _ = _traced_run(epochs=1)
    sequences = [e.sequence for e in recorder.events]
    assert sequences == sorted(sequences) == list(range(len(sequences)))
    # all source hops precede the final A-Q hop
    final = [e for e in recorder.events if e.receiver == QUERIER_NODE_ID]
    assert len(final) == 1
    assert all(e.sequence < final[0].sequence for e in recorder.filter(edge="S-A"))


def test_trace_agrees_with_traffic_counters() -> None:
    recorder, _, metrics = _traced_run(epochs=2)
    traced: dict[str, int] = {}
    for event in recorder.events:
        traced[event.edge] = traced.get(event.edge, 0) + event.wire_bytes
    assert traced == {
        edge.value: count for edge, count in metrics.traffic.payload_bytes.items()
    }


def test_hops_through_node() -> None:
    recorder, tree, _ = _traced_run(epochs=1)
    aggregator = tree.parent(0)
    hops = recorder.filter(node=aggregator)
    # receives from its 4 children, sends once upward
    assert sum(1 for e in hops if e.receiver == aggregator) == 4
    assert sum(1 for e in hops if e.sender == aggregator) == 1


def test_ciphertexts_excluded_by_default() -> None:
    """Events carry hop metadata only: no ciphertext reaches the trace."""
    simulator = _simulator(epochs=1)
    spy = Eavesdropper()
    simulator.channel.add_interceptor(spy)
    recorder = TraceRecorder(substrate="network")
    ChannelTraceAdapter(recorder).attach(simulator.channel)
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
        sequence=0, substrate="network", run_id="run-0", kind="send", epoch=1,
        edge="S-A", sender=0, receiver=1, uid=1 << 255, wire_bytes=32,
        psr_type="SIESRecord",
    )
    assert ObsEvent.from_json(event.to_json()) == event


def test_tracing_does_not_perturb_results() -> None:
    _, _, metrics = _traced_run(epochs=2)
    assert metrics.all_verified()


def test_double_attach_records_each_hop_once() -> None:
    simulator = _simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(simulator.channel)
    adapter.attach(simulator.channel)  # must be a no-op, not a second interceptor
    metrics = simulator.run()
    hops = metrics.traffic.total("messages")
    assert len(recorder.events) == hops


def test_detach_stops_recording() -> None:
    simulator = _simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(simulator.channel)
    adapter.detach()
    adapter.detach()  # idempotent
    simulator.run()
    assert recorder.events == []


def test_two_run_reuse_scopes_events_per_run() -> None:
    simulator = _simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    ChannelTraceAdapter(recorder).attach(simulator.channel)
    simulator.run()
    first_run = list(recorder.events)
    simulator.run()
    # begin_run resets the trace: the second run neither accumulates the
    # first run's events nor continues its sequence numbering.
    assert len(recorder.events) == len(first_run)
    assert recorder.events[0].sequence == 0
    assert recorder.events == first_run  # same seed, same deterministic trace


def test_attach_to_second_channel_detaches_from_first() -> None:
    first = _simulator(epochs=1)
    second = _simulator(epochs=1)
    recorder = TraceRecorder(substrate="network")
    adapter = ChannelTraceAdapter(recorder)
    adapter.attach(first.channel)
    adapter.attach(second.channel)
    first.run()
    assert recorder.events == []  # no longer listening on the first channel
    second.run()
    assert recorder.events != []
