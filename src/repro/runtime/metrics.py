"""Epoch records every substrate shares, and the runtime's run metrics.

:class:`EpochRecord` is how one epoch ended and :class:`EpochSeries` the
run-level views over a list of them; the analytic simulator and the TCP
cluster build their run metrics on both.  Nothing the runtime records
carries wall-clock seconds: every field is a function of the seed and
the configuration, so two runs with identical inputs produce identical
:meth:`RuntimeRunMetrics.ledger` dicts — the determinism contract the
acceptance tests compare byte for byte.

Latency fields are *logical* (scheduler time units; 0 on the zero-time
analytic simulator): epoch completion latency is the span from the
epoch's start event to the querier's evaluation of its final PSR.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.network.ledger import HopLedger
from repro.protocols.base import EvaluationResult, OpCounter
from repro.runtime.recovery import EpochRecovery

__all__ = ["EpochRecord", "EpochSeries", "RuntimeRunMetrics", "latency_percentile"]


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
class EpochRecord:
    """How one epoch ended, on any substrate."""

    epoch: int
    recovery: EpochRecovery
    result: EvaluationResult | None = None
    #: Security exception class name raised by the querier, if any;
    #: ``"MessageLost"`` / ``"NoResult"`` when no final PSR arrived.
    security_failure: str | None = None
    #: Epoch start to the querier's verdict on the substrate's clock —
    #: logical ticks on the runtime, seconds on the cluster (0 if lost).
    completion_latency: float = 0.0
    #: First copies of this epoch's traffic classified late, anywhere
    #: in the tree and at any time during the run.
    late_arrivals: int = 0

    @property
    def accepted(self) -> bool:
        return self.result is not None and self.security_failure is None

    @property
    def sources_reporting(self) -> int:
        """Sources that attempted to report (not failed or down)."""
        return len(self.recovery.attempted)


class EpochSeries:
    """Run-level views over ``epochs``, shared by every substrate."""

    epochs: list[EpochRecord]

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def recovery_summary(self) -> dict[str, object]:
        """Run-level recovery tallies: epochs complete, recovered (some
        sources lost, SUM over the survivors) and unrecovered (no final
        PSR), sources lost and survived, and losses per source."""
        recoveries = [e.recovery for e in self.epochs]
        converged = [r for r in recoveries if r.converged]
        complete = sum(1 for r in converged if r.complete)
        lost = Counter(sid for r in recoveries for sid in r.lost)
        return {
            "epochs_complete": complete,
            "epochs_recovered": len(converged) - complete,
            "epochs_unrecovered": len(recoveries) - len(converged),
            "sources_lost_total": sum(lost.values()),
            "sources_survived_total": sum(len(r.survivors) for r in recoveries),
            "lost_by_source": {str(sid): count for sid, count in sorted(lost.items())},
        }

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

    def results(self) -> list[EvaluationResult]:
        return [e.result for e in self.epochs if e.result is not None]

    def security_failures(self) -> list[tuple[int, str]]:
        return [(e.epoch, e.security_failure) for e in self.epochs if e.security_failure]

    def latency_summary(self) -> dict[str, float]:
        """Nearest-rank p50/p90/p99 and max of the completion latencies."""
        latencies = self.completion_latencies()
        return {
            "p50": latency_percentile(latencies, 0.50),
            "p90": latency_percentile(latencies, 0.90),
            "p99": latency_percentile(latencies, 0.99),
            "max": max(latencies) if latencies else 0.0,
        }

    def epoch_entries(self, *, measured: bool = True) -> list[dict]:
        """Per-epoch ledger rows; *measured* adds latency and late copies."""
        entries = []
        for e in self.epochs:
            entry = {
                "epoch": e.epoch,
                "value": str(e.result.value) if e.result else None,
                "verified": e.result.verified if e.result else None,
                "security_failure": e.security_failure,
                "survivors": sorted(e.recovery.survivors),
                "lost": sorted(e.recovery.lost),
                "converged": e.recovery.converged,
            }
            if measured:
                entry["completion_latency"] = e.completion_latency
                entry["late_arrivals"] = e.late_arrivals
            entries.append(entry)
        return entries


@dataclass
class RuntimeRunMetrics(EpochSeries):
    """Everything one runtime run measured (fully deterministic)."""

    protocol: str
    num_sources: int
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    transport: HopLedger = field(default_factory=HopLedger)
    source_ops: OpCounter = field(default_factory=OpCounter)
    aggregator_ops: OpCounter = field(default_factory=OpCounter)
    querier_ops: OpCounter = field(default_factory=OpCounter)
    events_processed: int = 0

    def retransmissions_total(self) -> int:
        return self.transport.total("retransmissions")

    def ledger(self) -> dict:
        """Canonical, JSON-serializable record of the whole run.

        Contains *only* seed-determined quantities — no wall-clock, no
        object ids — so two runs with the same configuration and seed
        must produce equal ledgers (asserted by the acceptance tests).
        """
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "num_epochs": self.num_epochs,
            "delivery_rate": self.delivery_rate(),
            "acceptance_rate": self.acceptance_rate(),
            "events_processed": self.events_processed,
            "transport": self.transport.as_dict(),
            "recovery": self.recovery_summary(),
            "ops": {
                "source": dict(sorted(self.source_ops.counts.items())),
                "aggregator": dict(sorted(self.aggregator_ops.counts.items())),
                "querier": dict(sorted(self.querier_ops.counts.items())),
            },
            "latency": self.latency_summary(),
            "epochs": self.epoch_entries(),
        }
