"""repro.obs — the unified observability layer.

One trace schema, one metric namespace, one profiler for all three
substrates (analytic network, event runtime, TCP cluster):

* :mod:`repro.obs.trace` — :class:`ObsEvent` / :class:`TraceRecorder`,
  JSON-lines serialization, and the seed-determined disposition slice;
* :mod:`repro.obs.adapters` — hook adapters for the analytic channel
  and the runtime/cluster ``(kind, attrs)`` transport observers;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, fixed-bucket histograms, Prometheus-text and JSON exporters;
* :mod:`repro.obs.publish` — maps every substrate's native ledger into
  the unified ``sies_*`` metric names;
* :mod:`repro.obs.profiling` — per-phase timers for the crypto/codec
  hot paths;
* :mod:`repro.obs.diff` — trace diffing on the determined slice.
"""

from repro.obs.adapters import ChannelTraceAdapter, TransportTraceAdapter
from repro.obs.diff import DispositionDelta, TraceDiff, diff_dispositions, diff_traces
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import PhaseProfiler, ProfiledCodec
from repro.obs.publish import (
    publish_cluster_metrics,
    publish_network_metrics,
    publish_ops,
    publish_runtime_metrics,
    publish_traffic,
    publish_transport,
)
from repro.obs.trace import EVENT_KINDS, ObsEvent, TraceRecorder, trace_dispositions

__all__ = [
    "EVENT_KINDS",
    "ObsEvent",
    "TraceRecorder",
    "trace_dispositions",
    "ChannelTraceAdapter",
    "TransportTraceAdapter",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "ProfiledCodec",
    "publish_traffic",
    "publish_ops",
    "publish_transport",
    "publish_network_metrics",
    "publish_runtime_metrics",
    "publish_cluster_metrics",
    "DispositionDelta",
    "TraceDiff",
    "diff_dispositions",
    "diff_traces",
]
