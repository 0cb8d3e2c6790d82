"""Hold-and-wait merging and querier settlement as one clock-free machine.

Above the per-hop ARQ (:mod:`repro.runtime.hop`) every lossy substrate
makes the same per-epoch decisions — paper Section IV-B failure handling
as a protocol run: aggregators merge whatever their children delivered,
and the querier verifies the exact SUM over the reported subset that the
merged manifests name.  This module makes those decisions and nothing
else; like the hop engine it never reads a clock, touches a socket or
schedules a callback:

* :class:`EpochPlanner` — per tree, once: node heights, each
  aggregator's merge offset (``hold_time × height``) and the querier's
  deadline offset (``hold_time × (root height + 1) + querier_slack``);
  per epoch (:meth:`EpochPlanner.plan`): the attempted and pre-failed
  sources and the contributions each *live* aggregator — one with an
  attempted source under it — can still receive;
* :class:`HoldAndWait` — one aggregator's inboxes, one per live epoch:
  :meth:`~HoldAndWait.offer` answers :data:`~repro.runtime.hop.DELIVERED`
  (and whether the inbox is now complete: the early-merge case) or
  :data:`~repro.runtime.hop.LATE`; :meth:`~HoldAndWait.close` merges in
  arrival order and forwards the merged PSR with the union of the
  manifests;
* :class:`QuerierEpochs` — the querier's side: the final PSR settles its
  epoch (:func:`settle_final`), the deadline settles an unsettled one as
  lost (:func:`settle_lost`), and anything later is late;
* :func:`settled_epochs` — the run's :class:`EpochRecord` list, with every
  late first copy of an epoch's traffic folded into that epoch.

The drivers own the time: the event runtime
(:class:`~repro.runtime.simulator.RuntimeSimulator`) turns the offsets
into scheduler events, the TCP cluster (:mod:`repro.cluster.node`) into
one ``asyncio.Event`` plus one timed wait per aggregator-epoch and per
querier-epoch, the analytic simulator into a zero-time bottom-up pass.
Times enter only as arguments (``started_at``, ``now``) to stamp
completion latencies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SecurityError, SimulationError
from repro.runtime.hop import DELIVERED, LATE
from repro.runtime.metrics import EpochRecord
from repro.runtime.recovery import EpochRecovery

if TYPE_CHECKING:
    from repro.network.topology import AggregationTree
    from repro.protocols.base import AggregatorRole, PartialStateRecord, QuerierRole
    from repro.runtime.faults import FaultPlan

__all__ = [
    "node_heights",
    "EpochPlan",
    "EpochPlanner",
    "HoldAndWait",
    "QuerierEpochs",
    "settle_final",
    "settle_lost",
    "settled_epochs",
]


def node_heights(tree: "AggregationTree") -> dict[int, int]:
    """Height of every node: sources 0, aggregators 1 + their highest child."""
    heights: dict[int, int] = {sid: 0 for sid in tree.source_ids}
    for aid in tree.bottom_up_aggregators():
        heights[aid] = 1 + max(heights[child] for child in tree.children(aid))
    return heights


@dataclass(frozen=True)
class EpochPlan:
    """Who takes part in one epoch."""

    #: Sources that report this epoch (alive, not pre-declared failed).
    attempted: frozenset[int]
    #: Sources failed up front or down this epoch: reported failures.
    pre_failed: frozenset[int]
    #: Live aggregators, bottom-up → child contributions that can arrive.
    expected: dict[int, int]


class EpochPlanner:
    """Heights and deadline offsets of one tree, and each epoch's plan."""

    def __init__(
        self,
        tree: "AggregationTree",
        *,
        hold_time: float,
        querier_slack: float,
        failed_sources: frozenset[int],
        faults: "FaultPlan",
    ) -> None:
        self.tree = tree
        self.failed_sources = failed_sources
        self.faults = faults
        heights = node_heights(tree)
        self._bottom_up = tree.bottom_up_aggregators()
        self._sources = frozenset(tree.source_ids)
        #: Aggregator → its merge deadline, relative to the epoch start.
        self.merge_offset = {aid: hold_time * heights[aid] for aid in self._bottom_up}
        #: The querier's deadline, relative to the epoch start.
        self.querier_offset = hold_time * (heights[tree.root_id] + 1) + querier_slack
        #: The plan of every epoch in which no source is down.
        self._full = self._walk(self._sources)

    def plan(self, epoch: int) -> EpochPlan:
        """The epoch's participants and its live aggregators' expected counts.

        A source down this epoch counts as a reported failure.  A child
        source counts towards its parent iff it attempted; a child
        aggregator iff it is live.  The expected count is what lets an
        aggregator merge the moment everything that *can* arrive has
        arrived, so deadlines only matter when the network loses something.
        """
        down = self._sources & self.failed_sources.union(
            o.node_id for o in self.faults.outages if o.down(epoch)
        )
        return self._walk(self._sources - down) if down else self._full

    def _walk(self, attempted: frozenset[int]) -> EpochPlan:
        tree = self.tree
        live: dict[int, bool] = {sid: sid in attempted for sid in tree.source_ids}
        expected: dict[int, int] = {}
        for aid in self._bottom_up:
            count = sum(1 for child in tree.children(aid) if live[child])
            live[aid] = count > 0
            if count:
                expected[aid] = count
        return EpochPlan(attempted, self._sources - attempted, expected)


class HoldAndWait:
    """One aggregator's hold-and-wait merge: an inbox per live epoch."""

    def __init__(self, node_id: int, role: "AggregatorRole", *, is_root: bool) -> None:
        self.node_id = node_id
        self.role = role
        self.is_root = is_root
        #: epoch → (expected contributions, [(psr, manifest), ...] in arrival order).
        self._inboxes: dict[int, tuple[int, list[tuple[PartialStateRecord, frozenset[int]]]]] = {}
        #: epoch → first copies classified late here.
        self.late: Counter[int] = Counter()

    def open(self, epoch: int, expected: int) -> None:
        """Open the epoch's inbox; it closes once, at :meth:`close`."""
        if epoch in self._inboxes:
            raise SimulationError(f"aggregator {self.node_id} already opened epoch {epoch}")
        self._inboxes[epoch] = (expected, [])

    def offer(
        self, epoch: int, psr: "PartialStateRecord", manifest: frozenset[int]
    ) -> tuple[str, bool]:
        """Hand in one child's first copy: ``(disposition, inbox complete)``.

        A copy for an epoch without an open inbox — closed already, or
        never live here — is :data:`LATE` and counted.
        """
        inbox = self._inboxes.get(epoch)
        if inbox is None:
            self.late[epoch] += 1
            return LATE, False
        expected, received = inbox
        received.append((psr, manifest))
        return DELIVERED, len(received) >= expected

    def close(self, epoch: int) -> "tuple[PartialStateRecord, frozenset[int]] | None":
        """Merge what arrived: ``(merged PSR, manifest union)`` to forward.

        ``None`` when no child delivered (the whole subtree failed) or
        when the inbox is already closed.  The root also finalizes the
        merged PSR for the querier.
        """
        _, received = self._inboxes.pop(epoch, (0, []))
        if not received:
            return None
        merged = self.role.merge(epoch, [psr for psr, _ in received])
        if self.is_root:
            merged = self.role.finalize_for_querier(merged)
        return merged, frozenset().union(*(manifest for _, manifest in received))


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
) -> EpochRecord:
    """Settle an epoch whose final PSR arrived carrying *manifest*.

    The querier evaluates over the manifest's reporting subset; a
    :class:`~repro.errors.SecurityError` rejects the epoch under its
    class name instead of propagating.
    """
    recovery = EpochRecovery.from_final_manifest(
        epoch, attempted=attempted, manifest=manifest, pre_failed=pre_failed
    )
    record = EpochRecord(epoch, recovery)
    if evaluate:
        try:
            record.result = querier.evaluate(
                epoch, psr, reporting_sources=recovery.reporting_subset(num_sources)
            )
        except SecurityError as exc:
            record.security_failure = type(exc).__name__
    return record


def settle_lost(
    epoch: int, *, attempted: frozenset[int], pre_failed: frozenset[int]
) -> EpochRecord:
    """Settle an epoch whose final PSR never reached the querier.

    ``MessageLost`` (sources attempted but the network or an adversary
    swallowed every path) stays distinct from ``NoResult`` (no source
    attempted: all failed or down).  All three substrates settle lost
    epochs here, so they draw the distinction alike.
    """
    recovery = EpochRecovery(
        epoch=epoch,
        attempted=attempted,
        survivors=frozenset(),
        pre_failed=pre_failed,
        converged=False,
    )
    return EpochRecord(
        epoch, recovery, security_failure="MessageLost" if attempted else "NoResult"
    )


class QuerierEpochs:
    """The querier's side of every epoch: settle each once, count the rest."""

    def __init__(self, role: "QuerierRole", *, num_sources: int, evaluate: bool = True) -> None:
        self.role = role
        self.num_sources = num_sources
        self.evaluate = evaluate
        #: epoch → (attempted, pre_failed, started_at) until it settles.
        self._open: dict[int, tuple[frozenset[int], frozenset[int], float]] = {}
        #: epoch → its record, once settled.
        self.records: dict[int, EpochRecord] = {}
        #: epoch → first copies classified late here.
        self.late: Counter[int] = Counter()

    def open(
        self,
        epoch: int,
        attempted: frozenset[int],
        pre_failed: frozenset[int],
        *,
        started_at: float,
    ) -> None:
        """Await the epoch's final PSR; *started_at* anchors its latency."""
        if epoch in self._open or epoch in self.records:
            raise SimulationError(f"querier already opened epoch {epoch}")
        self._open[epoch] = (attempted, pre_failed, started_at)

    def offer(
        self, epoch: int, psr: "PartialStateRecord", manifest: frozenset[int], *, now: float
    ) -> str:
        """Settle the epoch from its final PSR; a later copy is :data:`LATE`."""
        pending = self._open.pop(epoch, None)
        if pending is None:
            self.late[epoch] += 1
            return LATE
        attempted, pre_failed, started_at = pending
        record = settle_final(
            self.role,
            epoch,
            psr,
            attempted=attempted,
            manifest=manifest,
            pre_failed=pre_failed,
            num_sources=self.num_sources,
            evaluate=self.evaluate,
        )
        record.completion_latency = now - started_at
        self.records[epoch] = record
        return DELIVERED

    def expire(self, epoch: int) -> EpochRecord:
        """The deadline passed: settle the epoch as lost unless it settled."""
        pending = self._open.pop(epoch, None)
        if pending is not None:
            attempted, pre_failed, _ = pending
            self.records[epoch] = settle_lost(epoch, attempted=attempted, pre_failed=pre_failed)
        record = self.records.get(epoch)
        if record is None:
            raise SimulationError(f"querier never opened epoch {epoch}")
        return record


def settled_epochs(querier: QuerierEpochs, mergers: Iterable[HoldAndWait]) -> list[EpochRecord]:
    """Every settled epoch in epoch order, with the run's late copies folded in.

    Called once the run drained, so stragglers that landed after their
    epoch settled count too: Σ ``late_arrivals`` equals the hop ledger's
    ``late_frames``.
    """
    late = Counter(querier.late)
    for merger in mergers:
        late.update(merger.late)
    records = [querier.records[epoch] for epoch in sorted(querier.records)]
    for record in records:
        record.late_arrivals = late[record.epoch]
    return records
