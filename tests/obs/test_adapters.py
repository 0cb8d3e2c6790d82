"""Substrate hooks into the unified schema, metric publishing and profiling.

Every substrate reports hops to one ``(kind, attrs)`` observer; a
:class:`~repro.obs.TraceRecorder` passed as the config's ``observer``
adapts that stream into :class:`~repro.obs.ObsEvent` records.
"""

from __future__ import annotations

from repro.attacks import AdditiveTamperAttack
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass
from repro.network.ledger import HopLedger
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import (
    MetricsRegistry,
    PhaseProfiler,
    ProfiledCodec,
    TraceRecorder,
    publish_run,
    publish_traffic,
)
from repro.protocols.base import OpCounter
from repro.runtime import FaultPlan, RunMetrics, RuntimeConfig, RuntimeSimulator

N = 16


def _network_simulator(
    epochs: int = 2, observer: TraceRecorder | None = None
) -> NetworkSimulator:
    protocol = SIESProtocol(N, seed=3)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=4)
    config = SimulationConfig(num_epochs=epochs, observer=observer)
    return NetworkSimulator(protocol, tree, workload, config)


def _runtime_simulator(
    *, loss: float, seed: int = 11, epochs: int = 3, observer: TraceRecorder | None = None
) -> RuntimeSimulator:
    protocol = SIESProtocol(N, seed=seed)
    tree = build_complete_tree(N, 4)
    workload = UniformWorkload(N, 1, 50, seed=seed)
    config = RuntimeConfig(
        num_epochs=epochs,
        plan=FaultPlan.uniform_loss(loss),
        seed=seed,
        keyed_faults=True,
        observer=observer,
    )
    return RuntimeSimulator(protocol, tree, workload, config)


# ----------------------------------------------------------------------
# The recorder as the hop observer
# ----------------------------------------------------------------------


def test_analytic_observer_records_every_hop_as_attempt_and_deliver() -> None:
    recorder = TraceRecorder(substrate="network")
    metrics = _network_simulator(epochs=2, observer=recorder).run()
    hops = metrics.traffic.total("messages")
    assert len(recorder.filter(kinds=("attempt",))) == hops
    assert len(recorder.filter(kinds=("deliver",))) == hops
    assert {e.kind for e in recorder.events} == {"attempt", "deliver"}
    # lossless analytic hops are deliveries: nothing is ever "dropped"
    for per_epoch in recorder.dispositions().values():
        assert per_epoch["dropped"] == []
        assert len(per_epoch["delivered"]) > 0


def test_transport_adapter_traces_runtime_arq() -> None:
    recorder = TraceRecorder(substrate="runtime")
    metrics = _runtime_simulator(loss=0.3, observer=recorder).run()
    kinds = {e.kind for e in recorder.events}
    assert "attempt" in kinds and "deliver" in kinds and "drop" in kinds
    attempts = [e for e in recorder.events if e.kind == "attempt"]
    assert len(attempts) == sum(metrics.traffic.attempts.values())
    delivers = [e for e in recorder.events if e.kind == "deliver"]
    assert len(delivers) == sum(metrics.traffic.delivered.values())
    assert all(e.uid is not None for e in attempts)
    assert all(e.attempt is not None and e.time is not None for e in attempts)
    drops = [e for e in recorder.events if e.kind == "drop"]
    assert all(e.detail == "link" for e in drops)


def test_transport_adapter_observer_is_optional() -> None:
    """No observer, no trace — and byte-identical metrics either way."""
    recorder = TraceRecorder(substrate="runtime")
    traced = _runtime_simulator(loss=0.3, observer=recorder).run()
    plain = _runtime_simulator(loss=0.3).run()
    assert traced.ledger() == plain.ledger()
    assert traced.epochs == plain.epochs
    assert recorder.events

    recorder = TraceRecorder(substrate="network")
    traced = _network_simulator(epochs=3, observer=recorder).run()
    plain = _network_simulator(epochs=3).run()
    assert traced.traffic.as_dict() == plain.traffic.as_dict()
    assert traced.epochs == plain.epochs
    assert recorder.events


# ----------------------------------------------------------------------
# PhaseProfiler / ProfiledCodec
# ----------------------------------------------------------------------


def test_phase_profiler_accumulates_with_injected_clock() -> None:
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    with profiler.phase("encrypt"):
        pass  # 0 -> 1
    with profiler.phase("encrypt"):
        pass  # 2 -> 3
    with profiler.phase("evaluate"):
        pass  # 4 -> 5
    snap = profiler.snapshot()
    assert snap["encrypt"] == {"calls": 2, "seconds": 2.0}
    assert snap["evaluate"] == {"calls": 1, "seconds": 1.0}


def test_phase_profiler_wrap_and_publish() -> None:
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    double = profiler.wrap("combine", lambda x: 2 * x)
    assert double(21) == 42
    registry = MetricsRegistry()
    profiler.publish(registry, substrate="runtime")
    calls = registry.get("sies_phase_calls_total")
    assert calls is not None and calls.value(substrate="runtime", phase="combine") == 1


def test_profiled_codec_times_encode_and_decode() -> None:
    protocol = SIESProtocol(4, seed=5)
    codec = protocol.wire_codec()
    assert codec is not None
    ticks = iter(range(100))
    profiler = PhaseProfiler(clock=lambda: float(next(ticks)))
    profiled = ProfiledCodec(codec, profiler)
    psr = protocol.create_source(0).initialize(1, 17)
    frame = profiled.encode(psr)
    assert frame == codec.encode(psr)
    assert profiled.decode(frame) == codec.decode(frame)
    assert profiled.framed_size(psr) == codec.framed_size(psr)  # delegated, untimed
    snap = profiler.snapshot()
    assert snap["encode"]["calls"] == 1 and snap["decode"]["calls"] == 1
    assert "framed_size" not in snap


def test_publish_network_and_runtime_share_metric_names() -> None:
    registry = MetricsRegistry()
    net = _network_simulator(epochs=1)
    publish_run(net.run(), registry)
    rt = _runtime_simulator(loss=0.2, epochs=2)
    publish_run(rt.run(), registry)
    epochs_total = registry.get("sies_epochs_total")
    assert epochs_total is not None
    assert epochs_total.value(substrate="network") == 1
    assert epochs_total.value(substrate="runtime") == 2
    text = registry.render_prometheus()
    assert 'sies_traffic_bytes_total{substrate="network",edge="S-A"}' in text
    assert 'sies_traffic_bytes_total{substrate="runtime",edge="S-A"}' in text

    # An analytic run with one lost and one rejected epoch: only the
    # lost one is unrecovered, and neither is accepted.
    epochs = 4
    lossy = _network_simulator(epochs=epochs)
    tamper = AdditiveTamperAttack(delta=1, modulus=lossy.protocol.p)

    def adversary(message, edge):
        if edge is EdgeClass.AGGREGATOR_TO_QUERIER and message.epoch == 2:
            return None
        return tamper(message, edge) if message.epoch == 3 else message

    lossy.channel.add_interceptor(adversary)
    run = lossy.run()
    assert run.security_failures() == [(2, "MessageLost"), (3, "VerificationFailure")]
    analytic = MetricsRegistry()
    publish_run(run, analytic)
    assert analytic.get("sies_epochs_total").value(substrate="network") == epochs
    assert analytic.get("sies_epochs_unrecovered_total").value(substrate="network") == 1
    assert analytic.get("sies_epochs_accepted_total").value(substrate="network") == epochs - 2
    assert analytic.get("sies_acceptance_rate").value(substrate="network") == 0.5
    # The analytic substrate is zero-time: one 0 sample per settled epoch.
    latency = analytic.get("sies_completion_latency").snapshot(substrate="network")
    assert latency["count"] == epochs - 1 and latency["sum"] == 0.0


def test_decode_failures_publish_channel_and_receiver_discards() -> None:
    """Each discarded frame is published once: on an ARQ substrate the
    receiver's count, which holds every frame the channel rejected there
    (law 3), on the analytic simulator the channel's; zero counters stay
    silent."""
    ledger = HopLedger()
    aq = ledger.edge(EdgeClass.AGGREGATOR_TO_QUERIER)
    aq.attempts = 5
    # Two frames no longer parsed, one more copy a PSR interceptor dropped.
    aq.channel_decode_failures = 2
    aq.decode_failures = 3
    ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR).messages = 4
    registry = MetricsRegistry()
    publish_traffic(ledger, registry, substrate="cluster")
    failures = registry.get("sies_decode_failures_total")
    assert failures is not None
    assert failures.samples() == [("sies_decode_failures_total", ("cluster", "A-Q"), 3)]
    messages = registry.get("sies_traffic_messages_total")
    assert messages is not None
    assert messages.samples() == [("sies_traffic_messages_total", ("cluster", "S-A"), 4)]

    analytic = HopLedger()
    analytic.edge(EdgeClass.AGGREGATOR_TO_QUERIER).channel_decode_failures = 2
    registry = MetricsRegistry()
    publish_traffic(analytic, registry, substrate="network")
    failures = registry.get("sies_decode_failures_total")
    assert failures is not None
    assert failures.samples() == [("sies_decode_failures_total", ("network", "A-Q"), 2)]


def test_publish_run_writes_what_the_record_counted() -> None:
    """The ARQ and op families follow the data, not the substrate label:
    a record with no attempt and no operation publishes neither, and the
    same record with a nonzero op count gains ``sies_ops_total``."""

    def families(metrics: RunMetrics) -> set[str]:
        registry = MetricsRegistry()
        publish_run(metrics, registry)
        return set(registry.names())

    bare = families(RunMetrics("runtime", "sies", 4))
    assert not any(name.startswith("sies_transport_") for name in bare)
    assert "sies_ops_total" not in bare
    assert {"sies_traffic_messages_total", "sies_epochs_total"} <= bare
    assert "sies_ops_total" not in families(
        RunMetrics("network", "sies", 4, source_ops=OpCounter(counts={"hm256": 0}))
    )
    assert families(
        RunMetrics("cluster", "sies", 4, querier_ops=OpCounter(counts={"hm256": 1}))
    ) == bare | {"sies_ops_total"}
    # A lossless ARQ run still counts attempts, so its ARQ families appear.
    lossless = _runtime_simulator(loss=0.0, epochs=1).run()
    assert "sies_transport_attempts_total" in families(lossless)
