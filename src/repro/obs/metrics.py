"""Substrate-neutral metrics registry with Prometheus/JSON exporters.

Every substrate ends a run as one
:class:`~repro.runtime.metrics.RunMetrics` around one
:class:`~repro.network.ledger.HopLedger`, and one publisher
(:func:`repro.obs.publish.publish_run`) writes it into one
:class:`MetricsRegistry` under unified names, so a dashboard or diff
tool reads one namespace regardless of which execution substrate
produced the run.

Design constraints:

* **No clock.**  The registry stores only values handed to it; any
  timing it reports was measured elsewhere (the cluster's event-loop
  clock, ``EventScheduler`` logical time, or an injected counter).  That keeps
  the module SL002-clean and the exported values deterministic for
  seeded runs.
* **Fixed histogram buckets.**  Bucket bounds are part of a histogram's
  identity, declared at creation and immutable — two runs always bin
  identically, so exported histograms diff cleanly.
* **Prometheus text + JSON.**  :meth:`MetricsRegistry.render_prometheus`
  emits the text exposition format (``# HELP``/``# TYPE``, cumulative
  ``_bucket{le=...}``); :meth:`MetricsRegistry.render_json` the same
  content as one sorted JSON-friendly dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default fixed bounds for latency histograms.  Spans logical time
#: units (runtime: hundreds) and real seconds (cluster: fractions) so
#: one bucket layout serves every substrate.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.005,
    0.025,
    0.1,
    0.5,
    1.0,
    5.0,
    25.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ParameterError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts both; integral values print without the
    # trailing ``.0`` so counters look like counters.
    if isinstance(value, bool):
        return str(int(value))
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _series_suffix(labelnames: tuple[str, ...], label_values: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, label_values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared series bookkeeping for all three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self.labelnames = tuple(labelnames)

    def _series_values(self, label_kwargs: dict[str, str]) -> tuple[str, ...]:
        if set(label_kwargs) != set(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(label_kwargs)}"
            )
        return tuple(str(label_kwargs[name]) for name in self.labelnames)


class Counter(_Metric):
    """Monotonically increasing count (per labelled series)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ParameterError(f"counter {self.name!r} cannot decrease (inc {amount})")
        values = self._series_values(labels)
        self._series[values] = self._series.get(values, 0) + amount

    def value(self, **labels: str) -> float:
        return self._series.get(self._series_values(labels), 0)

    def samples(self) -> list[tuple[str, tuple[str, ...], float]]:
        return [(self.name, values, count) for values, count in sorted(self._series.items())]


class Gauge(_Metric):
    """A value that can go up and down (per labelled series)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._series[self._series_values(labels)] = float(value)

    def value(self, **labels: str) -> float:
        return self._series.get(self._series_values(labels), 0.0)

    def samples(self) -> list[tuple[str, tuple[str, ...], float]]:
        return [(self.name, values, v) for values, v in sorted(self._series.items())]


@dataclass
class _HistogramSeries:
    counts: list[int]
    total: float = 0.0
    observations: int = 0


class Histogram(_Metric):
    """Observations binned into *fixed* cumulative buckets.

    ``bounds`` are upper-inclusive bucket edges in strictly increasing
    order; an implicit ``+Inf`` bucket always exists.  Bounds are frozen
    at creation — the point of fixed buckets is that two runs (or two
    substrates) bin identically and therefore diff meaningfully.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        bounds: tuple[float, ...],
        labelnames: tuple[str, ...] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if not bounds:
            raise ParameterError(f"histogram {self.name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {self.name!r} bounds must be strictly increasing, got {bounds}"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        values = self._series_values(labels)
        series = self._series.get(values)
        if series is None:
            series = _HistogramSeries(counts=[0] * (len(self.bounds) + 1))
            self._series[values] = series
        placed = len(self.bounds)  # +Inf bucket by default
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                placed = index
                break
        series.counts[placed] += 1
        series.total += float(value)
        series.observations += 1

    def snapshot(self, **labels: str) -> dict[str, float | list[int]]:
        series = self._series.get(self._series_values(labels))
        if series is None:
            return {"counts": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}
        return {
            "counts": list(series.counts),
            "sum": series.total,
            "count": series.observations,
        }

    def series_items(self) -> list[tuple[tuple[str, ...], _HistogramSeries]]:
        return sorted(self._series.items())


class MetricsRegistry:
    """One namespace of metrics, shared by all substrates of a run."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, factory) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ParameterError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> Counter:
        metric = self._get_or_create(Counter, name, lambda: Counter(name, help_text, labelnames))
        if metric.labelnames != tuple(labelnames):
            raise ParameterError(
                f"metric {name!r} registered with labels {metric.labelnames}, got {labelnames}"
            )
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        metric = self._get_or_create(Gauge, name, lambda: Gauge(name, help_text, labelnames))
        if metric.labelnames != tuple(labelnames):
            raise ParameterError(
                f"metric {name!r} registered with labels {metric.labelnames}, got {labelnames}"
            )
        return metric  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        labelnames: tuple[str, ...] = (),
    ) -> Histogram:
        created = self._get_or_create(
            Histogram, name, lambda: Histogram(name, help_text, bounds, labelnames)
        )
        metric = cast(Histogram, created)
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ParameterError(
                f"histogram {name!r} registered with bounds {metric.bounds}; fixed "
                f"buckets cannot be redefined to {bounds}"
            )
        if metric.labelnames != tuple(labelnames):
            raise ParameterError(
                f"metric {name!r} registered with labels {metric.labelnames}, got {labelnames}"
            )
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        metric = self._metrics.get(name)
        return metric  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, metrics sorted by name."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for _, label_values, value in metric.samples():
                    suffix = _series_suffix(metric.labelnames, label_values)
                    lines.append(f"{name}{suffix} {_format_value(value)}")
            elif isinstance(metric, Histogram):
                for label_values, series in metric.series_items():
                    cumulative = 0
                    for bound, count in zip(metric.bounds, series.counts):
                        cumulative += count
                        bucket_names = metric.labelnames + ("le",)
                        bucket_values = label_values + (_format_value(bound),)
                        suffix = _series_suffix(bucket_names, bucket_values)
                        lines.append(f"{name}_bucket{suffix} {cumulative}")
                    cumulative += series.counts[-1]
                    suffix = _series_suffix(metric.labelnames + ("le",), label_values + ("+Inf",))
                    lines.append(f"{name}_bucket{suffix} {cumulative}")
                    plain = _series_suffix(metric.labelnames, label_values)
                    lines.append(f"{name}_sum{plain} {_format_value(series.total)}")
                    lines.append(f"{name}_count{plain} {series.observations}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> dict:
        """The registry as one sorted JSON-friendly dict."""
        out: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: dict = {
                "type": metric.kind,
                "help": metric.help_text,
                "labels": list(metric.labelnames),
            }
            if isinstance(metric, (Counter, Gauge)):
                entry["series"] = [
                    {"labels": list(label_values), "value": value}
                    for _, label_values, value in metric.samples()
                ]
            elif isinstance(metric, Histogram):
                entry["buckets"] = list(metric.bounds)
                entry["series"] = [
                    {
                        "labels": list(label_values),
                        "counts": list(series.counts),
                        "sum": series.total,
                        "count": series.observations,
                    }
                    for label_values, series in metric.series_items()
                ]
            out[name] = entry
        return out
