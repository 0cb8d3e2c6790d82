"""Measurement containers for the fault-injecting runtime.

Unlike :class:`~repro.network.metrics.RunMetrics`, nothing here carries
wall-clock seconds: every field is a function of the seed and the
configuration, so two runs with identical inputs produce identical
:meth:`RuntimeRunMetrics.ledger` dicts — the determinism contract the
acceptance tests compare byte for byte.

Latency fields are *logical* (scheduler time units): epoch completion
latency is the span from the epoch's start event to the querier's
evaluation of its final PSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.network.channel import TrafficCounters
from repro.protocols.base import EvaluationResult, OpCounter
from repro.runtime.recovery import EpochRecovery, RecoveryLedger
from repro.runtime.hop import HopLedger

__all__ = ["RuntimeEpochMetrics", "RuntimeRunMetrics", "latency_percentile"]


def latency_percentile(samples: list[float], fraction: float) -> float:
    """True nearest-rank percentile of *samples* (0 when empty).

    The nearest-rank definition: the p-th percentile of ``n`` ordered
    samples is the ``ceil(p * n)``-th smallest (1-based), so the p50 of
    ``[1, 2, 3, 4]`` is 2, not 3.  ``fraction <= 0`` returns the
    minimum, ``fraction >= 1`` the maximum.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class RuntimeEpochMetrics:
    """One epoch through the event runtime."""

    epoch: int
    recovery: EpochRecovery
    result: EvaluationResult | None = None
    #: Security exception class name raised by the querier, if any;
    #: ``"MessageLost"`` when no final PSR survived the network.
    security_failure: str | None = None
    #: Logical time from epoch start to evaluation (0 if unrecovered).
    completion_latency: float = 0.0
    #: Copies of this epoch's traffic that arrived after a deadline.
    late_arrivals: int = 0

    @property
    def accepted(self) -> bool:
        return self.result is not None and self.security_failure is None


@dataclass
class RuntimeRunMetrics:
    """Everything one runtime run measured (fully deterministic)."""

    protocol: str
    num_sources: int
    seed: int
    epochs: list[RuntimeEpochMetrics] = field(default_factory=list)
    transport: HopLedger = field(default_factory=HopLedger)
    recovery: RecoveryLedger = field(default_factory=RecoveryLedger)
    traffic: TrafficCounters = field(default_factory=TrafficCounters)
    source_ops: OpCounter = field(default_factory=OpCounter)
    aggregator_ops: OpCounter = field(default_factory=OpCounter)
    querier_ops: OpCounter = field(default_factory=OpCounter)
    events_processed: int = 0

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    # ------------------------------------------------------------------
    # Headline rates
    # ------------------------------------------------------------------

    def delivery_rate(self) -> float:
        """Fraction of attempted source contributions that survived."""
        attempted = sum(len(e.recovery.attempted) for e in self.epochs)
        survived = sum(len(e.recovery.survivors) for e in self.epochs)
        return survived / attempted if attempted else 1.0

    def acceptance_rate(self) -> float:
        """Fraction of epochs whose exact SUM the querier accepted."""
        if not self.epochs:
            return 1.0
        return sum(1 for e in self.epochs if e.accepted) / len(self.epochs)

    def completion_latencies(self) -> list[float]:
        return [e.completion_latency for e in self.epochs if e.recovery.converged]

    def retransmissions_total(self) -> int:
        return self.transport.total("retransmissions")

    def security_failures(self) -> list[tuple[int, str]]:
        return [(e.epoch, e.security_failure) for e in self.epochs if e.security_failure]

    def results(self) -> list[EvaluationResult]:
        return [e.result for e in self.epochs if e.result is not None]

    # ------------------------------------------------------------------
    # The determinism contract
    # ------------------------------------------------------------------

    def ledger(self) -> dict:
        """Canonical, JSON-serializable record of the whole run.

        Contains *only* seed-determined quantities — no wall-clock, no
        object ids — so two runs with the same configuration and seed
        must produce equal ledgers (asserted by the acceptance tests).
        """
        latencies = self.completion_latencies()
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "num_epochs": self.num_epochs,
            "delivery_rate": self.delivery_rate(),
            "acceptance_rate": self.acceptance_rate(),
            "events_processed": self.events_processed,
            "transport": self.transport.as_dict(),
            "recovery": self.recovery.as_dict(),
            "traffic_bytes": {
                edge.value: count
                for edge, count in sorted(
                    self.traffic.bytes_by_class.items(), key=lambda item: item[0].value
                )
            },
            "traffic_messages": {
                edge.value: count
                for edge, count in sorted(
                    self.traffic.messages_by_class.items(), key=lambda item: item[0].value
                )
            },
            "ops": {
                "source": dict(sorted(self.source_ops.counts.items())),
                "aggregator": dict(sorted(self.aggregator_ops.counts.items())),
                "querier": dict(sorted(self.querier_ops.counts.items())),
            },
            "latency": {
                "p50": latency_percentile(latencies, 0.50),
                "p90": latency_percentile(latencies, 0.90),
                "p99": latency_percentile(latencies, 0.99),
                "max": max(latencies) if latencies else 0.0,
            },
            "epochs": [
                {
                    "epoch": e.epoch,
                    "value": str(e.result.value) if e.result else None,
                    "verified": e.result.verified if e.result else None,
                    "security_failure": e.security_failure,
                    "survivors": sorted(e.recovery.survivors),
                    "lost": sorted(e.recovery.lost),
                    "converged": e.recovery.converged,
                    "completion_latency": e.completion_latency,
                    "late_arrivals": e.late_arrivals,
                }
                for e in self.epochs
            ],
        }
