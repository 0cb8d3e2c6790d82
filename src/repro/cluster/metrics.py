"""Accounting for the TCP cluster: every frame explained, none silent.

The cluster's headline safety property is **zero silent drops**: every
envelope a sender decided to transmit is accounted for — written to the
wire, deliberately dropped by the seeded fault schedule, suppressed as a
duplicate, counted late, or rejected as undecodable.  The traffic ledger
is the :class:`~repro.runtime.hop.HopLedger` the hop engine fills on
both substrates; its
:meth:`~repro.runtime.hop.HopLedger.check_conservation` runs at the end
of every run.  On top of the frame counts the cluster keeps byte
accounting that is double-entry like the channel layer's
:class:`~repro.network.channel.TrafficCounters`: ``psr_bytes`` is the
*measured* inner protocol frame, counted **once per parcel** and
cross-checked against ``codec.framed_size()`` at the send site, while
``envelope_bytes`` and ``ack_bytes`` count every byte actually written
(retransmissions and duplicates included).

Determinism split: parcel fates, survivor sets and SUM values are
seed-determined (:mod:`repro.cluster.faults`), but *attempt counts* can
exceed the oracle's under slow ACKs, and latencies are real seconds.
:meth:`ClusterRunMetrics.deterministic_ledger` therefore exposes only
the seed-determined slice (what the differential tests compare), while
:meth:`ClusterRunMetrics.ledger` reports everything measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocols.base import EvaluationResult
from repro.runtime.hop import HopLedger
from repro.runtime.metrics import latency_percentile
from repro.runtime.recovery import EpochRecovery, RecoveryLedger

__all__ = ["ClusterEpochResult", "ClusterRunMetrics"]


@dataclass
class ClusterEpochResult:
    """One epoch as the cluster's querier concluded it."""

    epoch: int
    recovery: EpochRecovery
    result: EvaluationResult | None = None
    #: Security exception class name raised by the querier, if any;
    #: ``"MessageLost"`` when no final PSR reached the querier at all.
    security_failure: str | None = None
    #: Real seconds from epoch launch to the querier's verdict.
    completion_latency: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.result is not None and self.security_failure is None


@dataclass
class ClusterRunMetrics:
    """Everything one cluster run measured."""

    protocol: str
    num_sources: int
    seed: int
    window: int
    epochs: list[ClusterEpochResult] = field(default_factory=list)
    traffic: HopLedger = field(default_factory=HopLedger)
    recovery: RecoveryLedger = field(default_factory=RecoveryLedger)
    #: Real seconds for the whole run (servers up → last epoch settled).
    wall_seconds: float = 0.0

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def acceptance_rate(self) -> float:
        if not self.epochs:
            return 1.0
        return sum(1 for e in self.epochs if e.accepted) / len(self.epochs)

    def delivery_rate(self) -> float:
        attempted = sum(len(e.recovery.attempted) for e in self.epochs)
        survived = sum(len(e.recovery.survivors) for e in self.epochs)
        return survived / attempted if attempted else 1.0

    def epochs_per_second(self) -> float:
        return self.num_epochs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def frames_per_second(self) -> float:
        frames = self.traffic.total("frames_sent") + self.traffic.total("acks_sent")
        return frames / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def results(self) -> list[EvaluationResult]:
        return [e.result for e in self.epochs if e.result is not None]

    def deterministic_ledger(self) -> dict:
        """The seed-determined slice: equal across reruns and equal to the
        :mod:`repro.cluster.faults` oracle's prediction on the same plan."""
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "epochs": [
                {
                    "epoch": e.epoch,
                    "value": str(e.result.value) if e.result else None,
                    "verified": e.result.verified if e.result else None,
                    "security_failure": e.security_failure,
                    "survivors": sorted(e.recovery.survivors),
                    "lost": sorted(e.recovery.lost),
                    "converged": e.recovery.converged,
                }
                for e in self.epochs
            ],
        }

    def ledger(self) -> dict:
        """Full JSON-serializable run record (includes measured timing)."""
        latencies = [e.completion_latency for e in self.epochs if e.recovery.converged]
        out = self.deterministic_ledger()
        out.update(
            {
                "window": self.window,
                "num_epochs": self.num_epochs,
                "acceptance_rate": self.acceptance_rate(),
                "delivery_rate": self.delivery_rate(),
                "recovery": self.recovery.as_dict(),
                "traffic": self.traffic.as_dict(),
                "wall_seconds": self.wall_seconds,
                "epochs_per_second": self.epochs_per_second(),
                "frames_per_second": self.frames_per_second(),
                "latency": {
                    "p50": latency_percentile(latencies, 0.50),
                    "p90": latency_percentile(latencies, 0.90),
                    "p99": latency_percentile(latencies, 0.99),
                    "max": max(latencies) if latencies else 0.0,
                },
            }
        )
        return out
