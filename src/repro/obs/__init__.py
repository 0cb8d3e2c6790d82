"""repro.obs — the unified observability layer.

One trace schema, one metric namespace, one profiler for all three
substrates (analytic network, event runtime, TCP cluster):

* :mod:`repro.obs.trace` — :class:`ObsEvent` / :class:`TraceRecorder`
  (itself the ``(kind, attrs)`` hop observer every substrate's config
  accepts), JSON-lines serialization, and the seed-determined
  disposition slice;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, fixed-bucket histograms, Prometheus-text and JSON exporters;
* :mod:`repro.obs.publish` — maps the one run record every substrate
  returns into the unified ``sies_*`` metric names;
* :mod:`repro.obs.profiling` — per-phase timers for the crypto/codec
  hot paths;
* :mod:`repro.obs.diff` — trace diffing on the determined slice.
"""

from repro.obs.diff import DispositionDelta, TraceDiff, diff_dispositions, diff_traces
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import PhaseProfiler, ProfiledCodec
from repro.obs.publish import publish_run, publish_traffic, publish_transport
from repro.obs.trace import EVENT_KINDS, ObsEvent, TraceRecorder, trace_dispositions

__all__ = [
    "EVENT_KINDS",
    "ObsEvent",
    "TraceRecorder",
    "trace_dispositions",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "ProfiledCodec",
    "publish_run",
    "publish_traffic",
    "publish_transport",
    "DispositionDelta",
    "TraceDiff",
    "diff_dispositions",
    "diff_traces",
]
