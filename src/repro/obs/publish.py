"""Publishers: native per-substrate metrics → the unified registry.

Each substrate keeps its native run metrics; these functions map every
ledger into one metric namespace (the ``sies_transport_*`` counters come
from the one hop ledger both ARQ substrates fill) so
``repro metrics`` (and any Prometheus scrape of an exported file) reads
identical names whichever substrate produced the run:

==========================================  =======================================
metric                                      labels
==========================================  =======================================
``sies_traffic_bytes_total``                ``substrate, edge`` (analytic payload)
``sies_traffic_messages_total``             ``substrate, edge``
``sies_frame_bytes_total``                  ``substrate, edge`` (measured frames)
``sies_decode_failures_total``              ``substrate, edge``
``sies_transport_attempts_total``           ``substrate, edge``
``sies_transport_retransmissions_total``    ``substrate, edge``
``sies_transport_delivered_total``          ``substrate, edge``
``sies_transport_duplicates_total``         ``substrate, edge`` (suppressed copies)
``sies_transport_late_total``               ``substrate, edge``
``sies_transport_gave_up_total``            ``substrate, edge``
``sies_transport_acks_sent_total``          ``substrate, edge``
``sies_transport_acks_lost_total``          ``substrate, edge``
``sies_epochs_total``                       ``substrate``
``sies_epochs_accepted_total``              ``substrate``
``sies_epochs_unrecovered_total``           ``substrate``
``sies_delivery_rate``                      ``substrate`` (gauge)
``sies_acceptance_rate``                    ``substrate`` (gauge)
``sies_completion_latency``                 ``substrate`` (histogram, fixed buckets)
``sies_ops_total``                          ``substrate, role, op``
``sies_phase_calls_total``                  ``substrate, phase`` (profiler)
``sies_phase_seconds_total``                ``substrate, phase`` (profiler)
==========================================  =======================================

Substrate label values: ``network`` (analytic), ``runtime`` (event
runtime), ``cluster`` (asyncio TCP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.channel import TrafficCounters
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

if TYPE_CHECKING:
    from repro.cluster.metrics import ClusterRunMetrics
    from repro.network.metrics import RunMetrics
    from repro.protocols.base import OpCounter
    from repro.runtime.hop import HopLedger
    from repro.runtime.metrics import EpochSeries, RuntimeRunMetrics

__all__ = [
    "publish_traffic",
    "publish_ops",
    "publish_transport",
    "publish_epoch_outcomes",
    "publish_network_metrics",
    "publish_runtime_metrics",
    "publish_cluster_metrics",
]

_EDGE_LABELS = ("substrate", "edge")


def publish_traffic(
    counters: TrafficCounters, registry: MetricsRegistry, *, substrate: str
) -> None:
    """Channel-layer byte/message accounting (all substrates share it)."""
    traffic_bytes = registry.counter(
        "sies_traffic_bytes_total", "Analytic payload bytes per edge class", _EDGE_LABELS
    )
    messages = registry.counter(
        "sies_traffic_messages_total", "Messages per edge class", _EDGE_LABELS
    )
    frame_bytes = registry.counter(
        "sies_frame_bytes_total", "Measured wire-frame bytes per edge class", _EDGE_LABELS
    )
    decode_failures = registry.counter(
        "sies_decode_failures_total", "Frames discarded as unparseable", _EDGE_LABELS
    )
    for edge, count in sorted(counters.bytes_by_class.items(), key=lambda kv: kv[0].value):
        traffic_bytes.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(counters.messages_by_class.items(), key=lambda kv: kv[0].value):
        messages.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(
        counters.frame_bytes_by_class.items(), key=lambda kv: kv[0].value
    ):
        frame_bytes.inc(count, substrate=substrate, edge=edge.value)
    for edge, count in sorted(
        counters.decode_failures_by_class.items(), key=lambda kv: kv[0].value
    ):
        decode_failures.inc(count, substrate=substrate, edge=edge.value)


def publish_ops(
    registry: MetricsRegistry,
    *,
    substrate: str,
    source: "OpCounter",
    aggregator: "OpCounter",
    querier: "OpCounter",
) -> None:
    """Primitive-operation counts per role under one metric."""
    ops = registry.counter(
        "sies_ops_total", "Primitive operations per role", ("substrate", "role", "op")
    )
    for role, counter in (("source", source), ("aggregator", aggregator), ("querier", querier)):
        for op, count in sorted(counter.counts.items()):
            if count:
                ops.inc(count, substrate=substrate, role=role, op=op)


def publish_epoch_outcomes(
    series: "EpochSeries", registry: MetricsRegistry, *, substrate: str
) -> None:
    """Epoch outcomes; *unrecovered* means lost, not rejected (PSR never arrived)."""
    registry.counter("sies_epochs_total", "Epochs executed", ("substrate",)).inc(
        series.num_epochs, substrate=substrate
    )
    registry.counter(
        "sies_epochs_accepted_total", "Epochs whose exact SUM was accepted", ("substrate",)
    ).inc(sum(1 for e in series.epochs if e.accepted), substrate=substrate)
    registry.counter(
        "sies_epochs_unrecovered_total", "Epochs lost end to end", ("substrate",)
    ).inc(sum(1 for e in series.epochs if not e.recovery.converged), substrate=substrate)
    registry.gauge(
        "sies_delivery_rate", "Fraction of attempted contributions that survived", ("substrate",)
    ).set(series.delivery_rate(), substrate=substrate)
    registry.gauge(
        "sies_acceptance_rate", "Fraction of epochs accepted by the querier", ("substrate",)
    ).set(series.acceptance_rate(), substrate=substrate)
    latency = registry.histogram(
        "sies_completion_latency",
        "Epoch completion latency (substrate-native time units)",
        DEFAULT_LATENCY_BUCKETS,
        ("substrate",),
    )
    for sample in series.completion_latencies():
        latency.observe(sample, substrate=substrate)


def publish_network_metrics(metrics: "RunMetrics", registry: MetricsRegistry) -> None:
    """Analytic :class:`~repro.network.metrics.RunMetrics` → registry (zero-time latencies)."""
    substrate = "network"
    publish_traffic(metrics.traffic, registry, substrate=substrate)
    publish_ops(
        registry,
        substrate=substrate,
        source=metrics.source_ops,
        aggregator=metrics.aggregator_ops,
        querier=metrics.querier_ops,
    )
    publish_epoch_outcomes(metrics, registry, substrate=substrate)


#: Ledger counter → (metric name, help), in publication order.
_TRANSPORT_METRICS: tuple[tuple[str, str, str], ...] = (
    ("attempts", "sies_transport_attempts_total", "Physical ARQ attempts"),
    (
        "retransmissions",
        "sies_transport_retransmissions_total",
        "Attempts beyond the first per parcel",
    ),
    ("delivered", "sies_transport_delivered_total", "First copies handed to the application"),
    (
        "duplicates_suppressed",
        "sies_transport_duplicates_total",
        "Copies suppressed by receiver dedup",
    ),
    ("late_frames", "sies_transport_late_total", "Copies arriving after their merge deadline"),
    (
        "gave_up",
        "sies_transport_gave_up_total",
        "Parcels whose sender exhausted its retries",
    ),
    ("acks_sent", "sies_transport_acks_sent_total", "Transport ACKs sent"),
    ("acks_dropped", "sies_transport_acks_lost_total", "Transport ACKs swallowed in flight"),
)


def publish_transport(ledger: "HopLedger", registry: MetricsRegistry, *, substrate: str) -> None:
    """The hop ledger both ARQ substrates fill → ``sies_transport_*``."""
    by_edge = sorted(ledger.by_class.items(), key=lambda kv: kv[0].value)
    for field_name, name, help_text in _TRANSPORT_METRICS:
        metric = registry.counter(name, help_text, _EDGE_LABELS)
        for edge, counters in by_edge:
            count = getattr(counters, field_name)
            if count:
                metric.inc(count, substrate=substrate, edge=edge.value)


def publish_runtime_metrics(metrics: "RuntimeRunMetrics", registry: MetricsRegistry) -> None:
    """Event-runtime ledger → registry (logical-time latencies)."""
    substrate = "runtime"
    publish_traffic(metrics.traffic, registry, substrate=substrate)
    publish_ops(
        registry,
        substrate=substrate,
        source=metrics.source_ops,
        aggregator=metrics.aggregator_ops,
        querier=metrics.querier_ops,
    )
    publish_transport(metrics.transport, registry, substrate=substrate)
    publish_epoch_outcomes(metrics, registry, substrate=substrate)


def publish_cluster_metrics(metrics: "ClusterRunMetrics", registry: MetricsRegistry) -> None:
    """TCP-cluster ledger → registry (real-seconds latencies)."""
    substrate = "cluster"
    ledger = metrics.traffic
    by_edge = sorted(ledger.by_class.items(), key=lambda kv: kv[0].value)
    traffic_bytes = registry.counter(
        "sies_traffic_bytes_total", "Analytic payload bytes per edge class", _EDGE_LABELS
    )
    messages = registry.counter(
        "sies_traffic_messages_total", "Messages per edge class", _EDGE_LABELS
    )
    frame_bytes = registry.counter(
        "sies_frame_bytes_total", "Measured wire-frame bytes per edge class", _EDGE_LABELS
    )
    decode_failures = registry.counter(
        "sies_decode_failures_total", "Frames discarded as unparseable", _EDGE_LABELS
    )
    for edge, c in by_edge:
        if c.psr_bytes:
            traffic_bytes.inc(c.psr_bytes, substrate=substrate, edge=edge.value)
        if c.delivered:
            messages.inc(c.delivered, substrate=substrate, edge=edge.value)
        if c.envelope_bytes:
            frame_bytes.inc(c.envelope_bytes, substrate=substrate, edge=edge.value)
        if c.decode_failures:
            decode_failures.inc(c.decode_failures, substrate=substrate, edge=edge.value)
    publish_transport(ledger, registry, substrate=substrate)
    publish_epoch_outcomes(metrics, registry, substrate=substrate)
