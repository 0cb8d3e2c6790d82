"""The publisher: one run record → the unified registry.

Every substrate ends a run as one
:class:`~repro.runtime.metrics.RunMetrics`, and :func:`publish_run`
maps it into one metric namespace, labelled with the record's
``substrate``, so ``repro metrics`` (and any Prometheus scrape of an
exported file) reads identical names whichever substrate produced the
run.  Every run holds one :class:`~repro.network.ledger.HopLedger`, and
:func:`publish_traffic` and :func:`publish_transport` are the only
writers of its series, so a traffic series means the same thing on all
three substrates:

* ``sies_traffic_messages_total`` — transmissions, one per attempt;
* ``sies_traffic_bytes_total`` — analytic payload bytes
  (``psr.wire_size()``, Table V), per attempt;
* ``sies_frame_bytes_total`` — measured PSR frame bytes (header
  included, envelope excluded), per attempt;
* ``sies_decode_failures_total`` — frames discarded as unparseable, by
  the channel or by the receiving node, each once (the receiver's count
  holds the channel's on the ARQ substrates).

On the ARQ substrates ``sies_traffic_messages_total`` therefore equals
``sies_transport_attempts_total`` edge class by edge class.  What is
published follows the data, never the substrate's name: the
``sies_transport_*`` families only when the ledger counted an ARQ
attempt, ``sies_ops_total`` only when a role counted an operation.

==========================================  =======================================
metric                                      labels
==========================================  =======================================
``sies_traffic_bytes_total``                ``substrate, edge`` (payload, per attempt)
``sies_traffic_messages_total``             ``substrate, edge`` (one per attempt)
``sies_frame_bytes_total``                  ``substrate, edge`` (frames, per attempt)
``sies_decode_failures_total``              ``substrate, edge`` (channel or receiver)
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

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

if TYPE_CHECKING:
    from repro.network.ledger import HopLedger
    from repro.runtime.metrics import RunMetrics

__all__ = ["publish_run", "publish_traffic", "publish_transport"]

_EDGE_LABELS = ("substrate", "edge")


def publish_traffic(ledger: "HopLedger", registry: MetricsRegistry, *, substrate: str) -> None:
    """The run's traffic counters → ``sies_traffic_*`` and the frame series."""
    series = (
        (
            "sies_traffic_bytes_total",
            "Analytic payload bytes per edge class, per attempt",
            lambda c: c.payload_bytes,
        ),
        (
            "sies_traffic_messages_total",
            "Transmissions per edge class, one per attempt",
            lambda c: c.messages,
        ),
        (
            "sies_frame_bytes_total",
            "Measured PSR frame bytes per edge class, per attempt",
            lambda c: c.frame_bytes,
        ),
        (
            "sies_decode_failures_total",
            "Frames discarded as unparseable, by the channel or the receiver",
            lambda c: c.decode_failures if c.attempts else c.channel_decode_failures,
        ),
    )
    by_edge = sorted(ledger.by_class.items(), key=lambda kv: kv[0].value)
    for name, help_text, read in series:
        metric = registry.counter(name, help_text, _EDGE_LABELS)
        for edge, counters in by_edge:
            count = read(counters)
            if count:
                metric.inc(count, substrate=substrate, edge=edge.value)


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



def publish_run(metrics: "RunMetrics", registry: MetricsRegistry) -> None:
    """One run record → registry, labelled ``substrate=metrics.substrate``.

    Latencies are in the substrate's time (0 on the analytic simulator,
    logical ticks on the runtime, real seconds on the cluster); an
    *unrecovered* epoch is lost (its PSR never arrived), not rejected.
    """
    substrate = metrics.substrate
    publish_traffic(metrics.traffic, registry, substrate=substrate)
    if metrics.traffic.total("attempts"):
        publish_transport(metrics.traffic, registry, substrate=substrate)
    roles = (
        ("source", metrics.source_ops),
        ("aggregator", metrics.aggregator_ops),
        ("querier", metrics.querier_ops),
    )
    if any(any(counter.counts.values()) for _, counter in roles):
        ops = registry.counter(
            "sies_ops_total", "Primitive operations per role", ("substrate", "role", "op")
        )
        for role, counter in roles:
            for op, count in sorted(counter.counts.items()):
                if count:
                    ops.inc(count, substrate=substrate, role=role, op=op)

    epochs = metrics.epochs
    registry.counter("sies_epochs_total", "Epochs executed", ("substrate",)).inc(
        len(epochs), substrate=substrate
    )
    registry.counter(
        "sies_epochs_accepted_total", "Epochs whose exact SUM was accepted", ("substrate",)
    ).inc(sum(1 for e in epochs if e.accepted), substrate=substrate)
    registry.counter(
        "sies_epochs_unrecovered_total", "Epochs lost end to end", ("substrate",)
    ).inc(sum(1 for e in epochs if not e.recovery.converged), substrate=substrate)
    registry.gauge(
        "sies_delivery_rate", "Fraction of attempted contributions that survived", ("substrate",)
    ).set(metrics.delivery_rate(), substrate=substrate)
    registry.gauge(
        "sies_acceptance_rate", "Fraction of epochs accepted by the querier", ("substrate",)
    ).set(metrics.acceptance_rate(), substrate=substrate)
    latency = registry.histogram(
        "sies_completion_latency",
        "Epoch completion latency (substrate-native time units)",
        DEFAULT_LATENCY_BUCKETS,
        ("substrate",),
    )
    for sample in metrics.completion_latencies():
        latency.observe(sample, substrate=substrate)
