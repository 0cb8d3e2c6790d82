"""Accounting for the TCP cluster: every frame explained, none silent.

The cluster's headline safety property is **zero silent drops**: every
envelope a sender decided to transmit is accounted for — written to the
wire, deliberately dropped by the seeded fault schedule, suppressed as a
duplicate, counted late, or rejected as undecodable.  The run's one
ledger is the :class:`~repro.network.ledger.HopLedger` every substrate
fills: the hop engine counts the ARQ, and the run's channel counts
``messages``, ``payload_bytes`` and ``frame_bytes`` per attempt, as on
the other two substrates (each frame checked against
``codec.framed_size()``).  Two counters
are the cluster's own: ``envelope_bytes`` and ``ack_bytes`` count every
byte actually written (retransmissions and duplicates included).
:meth:`~repro.network.ledger.HopLedger.check_conservation` runs at the
end of every run.

Determinism split: parcel fates, survivor sets and SUM values are
seed-determined (:mod:`repro.cluster.faults`), but *attempt counts* can
exceed the oracle's under slow ACKs, and latencies are real seconds.
:meth:`ClusterRunMetrics.deterministic_ledger` therefore exposes only
the seed-determined slice (what the differential tests compare), while
:meth:`ClusterRunMetrics.ledger` reports everything measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.ledger import HopLedger
from repro.runtime.metrics import EpochRecord, EpochSeries

__all__ = ["ClusterRunMetrics"]


@dataclass
class ClusterRunMetrics(EpochSeries):
    """Everything one cluster run measured."""

    protocol: str
    num_sources: int
    seed: int
    window: int
    epochs: list[EpochRecord] = field(default_factory=list)
    traffic: HopLedger = field(default_factory=HopLedger)
    #: Real seconds for the whole run (servers up → last epoch settled).
    wall_seconds: float = 0.0

    def epochs_per_second(self) -> float:
        return self.num_epochs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def frames_per_second(self) -> float:
        frames = self.traffic.total("frames_sent") + self.traffic.total("acks_sent")
        return frames / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def deterministic_ledger(self) -> dict:
        """The seed-determined slice: equal across reruns and equal to the
        :mod:`repro.cluster.faults` oracle's prediction on the same plan."""
        return {
            "protocol": self.protocol,
            "num_sources": self.num_sources,
            "seed": self.seed,
            "epochs": self.epoch_entries(measured=False),
        }

    def ledger(self) -> dict:
        """Full JSON-serializable run record (includes measured timing)."""
        out = self.deterministic_ledger()
        out.update(
            {
                # Latencies and late copies depend on timing.
                "epochs": self.epoch_entries(),
                "window": self.window,
                "num_epochs": self.num_epochs,
                "acceptance_rate": self.acceptance_rate(),
                "delivery_rate": self.delivery_rate(),
                "recovery": self.recovery_summary(),
                "traffic": self.traffic.as_dict(),
                "wall_seconds": self.wall_seconds,
                "epochs_per_second": self.epochs_per_second(),
                "frames_per_second": self.frames_per_second(),
                "latency": self.latency_summary(),
            }
        )
        return out
