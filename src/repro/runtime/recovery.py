"""Loss-to-reported-failure recovery (paper Section III-B / IV-B).

The querier verifies ``s_t = Σ_{i∈R} ss_i,t`` over *any* reported
subset ``R`` — the property that makes SIES robust to node failures.
The runtime exploits it for packet loss too: every PSR travels with a
**manifest**, the exact set of source ids whose contributions were
merged into it.  Sources start with the singleton manifest; aggregators
forward the union of whatever arrived by their deadline; the querier
reads the final manifest as the reporting subset ``R`` and evaluates
the exact SUM over the survivors instead of rejecting the epoch.

Because the manifest describes what was *actually merged* — not what
senders believe was delivered — ACK losses and sender-side give-ups
never desynchronize verification: a contribution is in the subset iff
it is in the ciphertext.

This module holds the bookkeeping around that idea: classifying each
epoch's sources into survivors / lost / pre-declared-failed, the
converged-or-not verdict the property tests assert on, and the
querier's settlement of an epoch (:func:`settle_final`,
:func:`settle_lost`), which every substrate calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SecurityError, SimulationError

if TYPE_CHECKING:
    from repro.network.topology import AggregationTree
    from repro.protocols.base import EvaluationResult, PartialStateRecord, QuerierRole

__all__ = [
    "EpochRecovery",
    "RecoveryLedger",
    "Settlement",
    "expected_contributions",
    "settle_final",
    "settle_lost",
]


def expected_contributions(tree: "AggregationTree", attempted: frozenset[int]) -> dict[int, int]:
    """Per-aggregator count of child contributions that could arrive.

    A child source counts iff it attempted to report; a child aggregator
    counts iff any attempted source sits in its subtree.  Both runtimes
    (:class:`~repro.runtime.simulator.RuntimeSimulator` and the TCP
    cluster) use this for the early-merge fast path: an aggregator
    merges the moment everything that *can* arrive has arrived, so
    deadlines only matter when the network actually loses something.
    """
    expected: dict[int, int] = {}
    live_subtree: dict[int, bool] = {sid: sid in attempted for sid in tree.source_ids}
    for aid in tree.bottom_up_aggregators():
        count = sum(1 for child in tree.children(aid) if live_subtree[child])
        expected[aid] = count
        live_subtree[aid] = count > 0
    return expected


@dataclass(frozen=True)
class EpochRecovery:
    """How one epoch's source population fared end to end."""

    epoch: int
    #: Sources that attempted to report (alive, not pre-declared failed).
    attempted: frozenset[int]
    #: Sources whose contribution reached the final PSR (the subset R).
    survivors: frozenset[int]
    #: Sources declared failed up front (never attempted).
    pre_failed: frozenset[int]
    #: True when a final PSR reached the querier at all.
    converged: bool

    def __post_init__(self) -> None:
        if not self.survivors <= self.attempted:
            raise SimulationError(
                f"epoch {self.epoch}: survivors {sorted(self.survivors - self.attempted)} "
                "never attempted to report — manifest corruption"
            )

    @classmethod
    def from_final_manifest(
        cls,
        epoch: int,
        *,
        attempted: frozenset[int],
        manifest: frozenset[int],
        pre_failed: frozenset[int],
    ) -> "EpochRecovery":
        """Recovery verdict for an epoch whose final PSR arrived.

        The *manifest* carried by that PSR **is** the reporting subset
        ``R`` — what was actually merged, not what senders believe was
        delivered — shared by both runtimes so their verdicts can be
        compared verbatim in the differential tests.
        """
        return cls(
            epoch=epoch,
            attempted=attempted,
            survivors=manifest,
            pre_failed=pre_failed,
            converged=True,
        )

    @property
    def lost(self) -> frozenset[int]:
        """Sources whose PSR was swallowed by the network this epoch."""
        return self.attempted - self.survivors

    @property
    def complete(self) -> bool:
        """Every attempted source made it into the final PSR."""
        return self.survivors == self.attempted

    def reporting_subset(self, num_sources: int) -> list[int] | None:
        """The ``reporting_sources`` argument for the querier.

        ``None`` (meaning "all") when every source survived — matching
        the sequential simulator's calling convention so op counts and
        behaviour line up; otherwise the sorted survivor list.
        """
        if self.converged and len(self.survivors) == num_sources:
            return None
        return sorted(self.survivors)


@dataclass(frozen=True)
class Settlement:
    """How the querier concluded one epoch."""

    recovery: EpochRecovery
    result: "EvaluationResult | None" = None
    #: Security exception class name raised by the querier, if any;
    #: ``"MessageLost"`` / ``"NoResult"`` when no final PSR arrived.
    security_failure: str | None = None


def settle_final(
    querier: "QuerierRole",
    epoch: int,
    psr: "PartialStateRecord",
    *,
    attempted: frozenset[int],
    manifest: frozenset[int],
    pre_failed: frozenset[int],
    num_sources: int,
    evaluate: bool = True,
) -> Settlement:
    """Settle an epoch whose final PSR arrived carrying *manifest*.

    The querier evaluates over the manifest's reporting subset; a
    :class:`~repro.errors.SecurityError` rejects the epoch under its
    class name instead of propagating.
    """
    recovery = EpochRecovery.from_final_manifest(
        epoch, attempted=attempted, manifest=manifest, pre_failed=pre_failed
    )
    if not evaluate:
        return Settlement(recovery)
    try:
        result = querier.evaluate(
            epoch, psr, reporting_sources=recovery.reporting_subset(num_sources)
        )
    except SecurityError as exc:
        return Settlement(recovery, security_failure=type(exc).__name__)
    return Settlement(recovery, result=result)


def settle_lost(
    epoch: int, *, attempted: frozenset[int], pre_failed: frozenset[int]
) -> Settlement:
    """Settle an epoch whose final PSR never reached the querier.

    ``MessageLost`` (sources reported but the network swallowed every
    path) stays distinct from ``NoResult`` (no source ever reported),
    matching :class:`~repro.network.simulator.NetworkSimulator`.
    """
    recovery = EpochRecovery(
        epoch=epoch,
        attempted=attempted,
        survivors=frozenset(),
        pre_failed=pre_failed,
        converged=False,
    )
    return Settlement(recovery, security_failure="MessageLost" if attempted else "NoResult")


@dataclass
class RecoveryLedger:
    """Run-level tallies of the recovery path (deterministic)."""

    epochs_complete: int = 0
    epochs_recovered: int = 0
    epochs_unrecovered: int = 0
    sources_lost_total: int = 0
    sources_survived_total: int = 0
    lost_by_source: dict[int, int] = field(default_factory=dict)

    def record(self, recovery: EpochRecovery) -> None:
        if not recovery.converged:
            self.epochs_unrecovered += 1
        elif recovery.complete:
            self.epochs_complete += 1
        else:
            self.epochs_recovered += 1
        self.sources_survived_total += len(recovery.survivors)
        self.sources_lost_total += len(recovery.lost)
        for source_id in recovery.lost:
            self.lost_by_source[source_id] = self.lost_by_source.get(source_id, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "epochs_complete": self.epochs_complete,
            "epochs_recovered": self.epochs_recovered,
            "epochs_unrecovered": self.epochs_unrecovered,
            "sources_lost_total": self.sources_lost_total,
            "sources_survived_total": self.sources_survived_total,
            "lost_by_source": {
                str(sid): count for sid, count in sorted(self.lost_by_source.items())
            },
        }
