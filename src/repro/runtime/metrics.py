"""The epoch record and the run record every substrate fills.

:class:`EpochRecord` is how one epoch ended and :class:`RunMetrics`
everything one run measured, on the analytic simulator (``network``),
the event runtime (``runtime``) and the TCP cluster (``cluster``)
alike: the epochs, the run's one
:class:`~repro.network.ledger.HopLedger` (Table V's traffic per edge
class, plus the ARQ counters on the two ARQ substrates), the
primitive-operation counts per role, and what only some substrates
measure (scheduler events, the cluster's window and wall-clock
seconds, radio energy per node), each zero or empty where unmeasured.
The ledger's conservation laws are checked as the record is built.

:meth:`RunMetrics.deterministic_ledger` is the seed-determined slice,
equal across reruns on every substrate; :meth:`RunMetrics.ledger` adds
everything measured.  The runtime measures nothing but seeded, logical
quantities, so its full ledger is rerun-equal too — the determinism
contract the acceptance tests compare byte for byte.

Latency fields are in the substrate's time: logical ticks on the
runtime, real seconds on the cluster, 0 on the zero-time analytic
simulator.  Epoch completion latency is the span from the epoch's start
to the querier's evaluation of its final PSR.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Literal

from repro.network.ledger import HopLedger
from repro.protocols.base import EvaluationResult, OpCounter
from repro.runtime.recovery import EpochRecovery

__all__ = ["EpochRecord", "RunMetrics", "Substrate", "latency_percentile"]

#: The label a run record, and every metric it publishes, carries.
Substrate = Literal["network", "runtime", "cluster"]


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


@dataclass
class RunMetrics:
    """Everything one run measured, on any substrate."""

    substrate: Substrate
    protocol: str
    num_sources: int
    #: The run's fault and jitter seed (``None`` on the analytic simulator).
    seed: int | None = None
    epochs: list[EpochRecord] = field(default_factory=list)
    traffic: HopLedger = field(default_factory=HopLedger)
    source_ops: OpCounter = field(default_factory=OpCounter)
    aggregator_ops: OpCounter = field(default_factory=OpCounter)
    querier_ops: OpCounter = field(default_factory=OpCounter)
    #: Scheduler events the runtime processed.
    events_processed: int = 0
    #: Cluster pipelining bound: epochs in flight at once.
    window: int = 0
    #: Real seconds of a cluster run (servers up → last epoch settled).
    wall_seconds: float = 0.0
    #: Joules per node when an energy model is attached.
    energy_by_node: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.traffic.check_conservation()

    @property
    def transport(self) -> HopLedger:
        """The traffic ledger under its old runtime name.

        Kept only for ``perfbench/workloads.py``, which reads
        ``metrics.transport`` on the runtime and changes only with the
        benchmark; everything else reads :attr:`traffic`.
        """
        return self.traffic

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def all_verified(self) -> bool:
        return all(e.result.verified for e in self.epochs if e.result is not None)

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

    def epochs_per_second(self) -> float:
        return self.num_epochs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def frames_per_second(self) -> float:
        frames = self.traffic.total("frames_sent") + self.traffic.total("acks_sent")
        return frames / self.wall_seconds if self.wall_seconds > 0 else 0.0

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

    def deterministic_ledger(self) -> dict:
        """The seed-determined slice: equal across reruns (and, on the
        cluster, across windows; on both lossy substrates, its survivor
        sets are :meth:`~repro.runtime.epoch.EpochPlanner.predict`'s on
        the same plan)."""
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "epochs": self.epoch_entries(measured=False),
        }

    def ledger(self) -> dict:
        """The full JSON-serializable record of the run."""
        out = self.deterministic_ledger()
        out.update(
            {
                "substrate": self.substrate,
                # Latencies and late copies depend on timing on the cluster.
                "epochs": self.epoch_entries(),
                "num_epochs": self.num_epochs,
                "delivery_rate": self.delivery_rate(),
                "acceptance_rate": self.acceptance_rate(),
                "recovery": self.recovery_summary(),
                "latency": self.latency_summary(),
                "traffic": self.traffic.as_dict(),
                "ops": {
                    "source": dict(sorted(self.source_ops.counts.items())),
                    "aggregator": dict(sorted(self.aggregator_ops.counts.items())),
                    "querier": dict(sorted(self.querier_ops.counts.items())),
                },
                "events_processed": self.events_processed,
                "window": self.window,
                "wall_seconds": self.wall_seconds,
                "epochs_per_second": self.epochs_per_second(),
                "frames_per_second": self.frames_per_second(),
                "energy_by_node": {
                    str(node): joules for node, joules in sorted(self.energy_by_node.items())
                },
            }
        )
        return out
