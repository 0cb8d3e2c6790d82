"""Per-run measurement container of the analytic simulator.

Each epoch ends as one :class:`~repro.runtime.metrics.EpochRecord`, the
type every substrate records; :class:`RunMetrics` adds what the
analytic simulator measures per run: primitive-operation counts (for
the modeled costs of Section V), traffic per edge class (Table V) and,
optionally, radio energy per node.  Per-role CPU time is measured by the
Figure 4–6 experiments (:mod:`repro.experiments.common`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.ledger import HopLedger
from repro.protocols.base import OpCounter
from repro.runtime.metrics import EpochRecord, EpochSeries

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics(EpochSeries):
    """Measurements aggregated over a whole simulation run."""

    protocol: str
    num_sources: int
    epochs: list[EpochRecord] = field(default_factory=list)
    traffic: HopLedger = field(default_factory=HopLedger)
    source_ops: OpCounter = field(default_factory=OpCounter)
    aggregator_ops: OpCounter = field(default_factory=OpCounter)
    querier_ops: OpCounter = field(default_factory=OpCounter)
    #: Joules per node when an energy model is attached (else empty).
    energy_by_node: dict[int, float] = field(default_factory=dict)

    def all_verified(self) -> bool:
        return all(e.result.verified for e in self.epochs if e.result is not None)
