"""Hold-and-wait merging and querier settlement as one clock-free machine.

Above the per-hop ARQ (:mod:`repro.runtime.transport`) every lossy substrate
makes the same per-epoch decisions — paper Section IV-B failure handling
as a protocol run: aggregators merge whatever their children delivered,
and the querier verifies the exact SUM over the reported subset that the
merged manifests name.  This module makes those decisions, and drives
them on a timer it is handed; like the ARQ it never reads a clock or
touches a socket of its own:

* :class:`EpochPlanner` — per tree, once: node heights, each
  aggregator's merge offset (``hold_time × height``), the querier's
  deadline offset (``hold_time × (root height + 1) + querier_slack``)
  and the uplink table (every node's receiver and edge class); per
  epoch (:meth:`EpochPlanner.plan`): the attempted and pre-failed
  sources and the contributions each *live* aggregator — one with an
  attempted source under it — can still receive; and, as a test oracle
  that no decision reads, what the keyed fault schedule makes of the
  epoch (:meth:`EpochPlanner.predict`);
* :class:`HoldAndWait` — one aggregator's inboxes, one per live epoch:
  :meth:`~HoldAndWait.offer` answers :data:`~repro.runtime.transport.DELIVERED`
  (and whether the inbox is now complete: the early-merge case),
  :data:`~repro.runtime.transport.LATE` or, for a forged header epoch,
  :data:`~repro.runtime.transport.DECODE_FAILURE`; :meth:`~HoldAndWait.close` merges in
  arrival order and forwards the merged PSR with the union of the
  manifests;
* :class:`QuerierEpochs` — the querier's side: the final PSR settles its
  epoch (:meth:`~QuerierEpochs.offer`: evaluated over the subset its
  manifest names), the deadline settles an unsettled one as lost
  (:meth:`~QuerierEpochs.expire`), and anything later is late;
* :class:`EpochDriver` — the one driver of all of the above on a timer:
  it starts each epoch, arms its deadlines, hands every first copy to
  its receiver's machine and routes every forward up the tree;
  :meth:`~EpochDriver.records` is the run's :class:`EpochRecord` list,
  with every late first copy of an epoch's traffic folded into that epoch.

All three substrates run on :class:`EpochDriver`; only the timer and
the ``send`` callable differ.  The event runtime
(:class:`~repro.runtime.simulator.RuntimeSimulator`) hands it the
scheduler's logical clock and the per-hop ARQ over scheduler events; the
TCP cluster (:mod:`repro.cluster.orchestrator`) the running asyncio loop
and the ARQ over sockets; the analytic
:class:`~repro.network.simulator.NetworkSimulator` a zero-time timer
(every deadline at offset 0, fired in arm order) and a FIFO queue of
hops.  Times enter the machine only as arguments (``started_at``,
``now``) to stamp completion latencies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SecurityError, SimulationError
from repro.network.ledger import EdgeClass
from repro.network.messages import QUERIER_NODE_ID
from repro.runtime.transport import DECODE_FAILURE, DELIVERED, LATE, parcel_fate
from repro.runtime.metrics import EpochRecord
from repro.runtime.recovery import EpochRecovery

if TYPE_CHECKING:
    from repro.network.messages import Workload
    from repro.network.topology import AggregationTree
    from repro.protocols.base import AggregatorRole, PartialStateRecord, QuerierRole, SourceRole
    from repro.runtime.faults import FaultPlan, KeyedFaultInjector
    from repro.runtime.transport import RetransmitPolicy

__all__ = [
    "node_heights",
    "EpochPlan",
    "EpochFate",
    "EpochPlanner",
    "HoldAndWait",
    "QuerierEpochs",
    "EpochDriver",
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


@dataclass(frozen=True)
class EpochFate:
    """What the keyed fault schedule makes of one epoch (:meth:`EpochPlanner.predict`)."""

    #: Sources whose PSR reaches the querier.
    survivors: frozenset[int]
    #: ARQ attempts over every parcel sent, each surviving ACK in time.
    attempts: int
    #: Parcels sent: every attempted source, and every aggregator that got anything.
    parcels: int


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
        #: Node → (receiver, edge class) of its one hop up the tree.
        self.uplink = _uplink_table(tree)
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

    def predict(
        self, epoch: int, injector: "KeyedFaultInjector", policy: "RetransmitPolicy"
    ) -> EpochFate:
        """Replay the epoch's parcels against the keyed schedule, bottom-up.

        Every attempted source sends, and every live aggregator forwards
        the union of the manifests its children delivered, if any
        (:func:`~repro.runtime.transport.parcel_fate` per parcel).  This
        is the outcome whenever each delivered copy beats its merge
        deadline and each surviving ACK its timeout.  A test oracle: no
        substrate decision reads it.
        """
        plan = self.plan(epoch)
        inbox: dict[int, set[int]] = {}
        attempts = parcels = 0

        def send(node: int, manifest: set[int]) -> None:
            nonlocal attempts, parcels
            receiver, edge = self.uplink[node]
            delivered, tries = parcel_fate(injector, policy, node, receiver, edge, epoch)
            attempts += tries
            parcels += 1
            if delivered:
                inbox.setdefault(receiver, set()).update(manifest)

        for sid in self.tree.source_ids:
            if sid in plan.attempted:
                send(sid, {sid})
        for aid in plan.expected:  # live aggregators, bottom-up
            manifest = inbox.pop(aid, None)
            if manifest:
                send(aid, manifest)
        return EpochFate(frozenset(inbox.get(QUERIER_NODE_ID, ())), attempts, parcels)

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


def _uplink_table(tree: "AggregationTree") -> dict[int, tuple[int, EdgeClass]]:
    s_a, a_a = EdgeClass.SOURCE_TO_AGGREGATOR, EdgeClass.AGGREGATOR_TO_AGGREGATOR
    uplink: dict[int, tuple[int, EdgeClass]] = {}
    # Siblings share one hop tuple: the table keeps one long-lived object
    # per receiver and edge class, not one per node, which keeps a
    # simulator's set-up from adding to the garbage collector's work.
    hops: dict[tuple[int, EdgeClass], tuple[int, EdgeClass]] = {}
    for node in tree:
        parent = node.parent_id
        if parent is not None:
            hop = (parent, s_a if node.is_source else a_a)
            uplink[node.node_id] = hops.setdefault(hop, hop)
        elif node.is_source:
            raise SimulationError(f"source {node.node_id} has no parent aggregator")
        else:
            uplink[node.node_id] = (QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER)
    return uplink


class HoldAndWait:
    """One aggregator's hold-and-wait merge: an inbox per live epoch."""

    def __init__(self, node_id: int, role: "AggregatorRole", *, is_root: bool) -> None:
        self.node_id = node_id
        self.role = role
        self.is_root = is_root
        #: epoch → (expected contributions, PSRs, their manifests), in arrival order.
        self._inboxes: dict[
            int, tuple[int, list[PartialStateRecord], list[frozenset[int]]]
        ] = {}
        #: epoch → first copies classified late here.
        self.late: Counter[int] = Counter()

    def open(self, epoch: int, expected: int) -> None:
        """Open the epoch's inbox; it closes once, at :meth:`close`."""
        if epoch in self._inboxes:
            raise SimulationError(f"aggregator {self.node_id} already opened epoch {epoch}")
        self._inboxes[epoch] = (expected, [], [])

    def offer(
        self, epoch: int, psr: "PartialStateRecord", manifest: frozenset[int]
    ) -> tuple[str, bool]:
        """Hand in one child's first copy: ``(disposition, inbox complete)``.

        A copy whose header names another epoch than the routed one is a
        :data:`DECODE_FAILURE`, never merged; a copy for an epoch without
        an open inbox — closed already, or never live here — is
        :data:`LATE` and counted.
        """
        if psr.epoch != epoch:
            return DECODE_FAILURE, False
        inbox = self._inboxes.get(epoch)
        if inbox is None:
            self.late[epoch] += 1
            return LATE, False
        expected, psrs, manifests = inbox
        psrs.append(psr)
        manifests.append(manifest)
        return DELIVERED, len(psrs) >= expected

    def close(self, epoch: int) -> "tuple[PartialStateRecord, frozenset[int]] | None":
        """Merge what arrived: ``(merged PSR, manifest union)`` to forward.

        ``None`` when no child delivered (the whole subtree failed) or
        when the inbox is already closed.  The root also finalizes the
        merged PSR for the querier.
        """
        inbox = self._inboxes.pop(epoch, None)
        if inbox is None or not inbox[1]:
            return None
        _, psrs, manifests = inbox
        merged = self.role.merge(epoch, psrs)
        if self.is_root:
            merged = self.role.finalize_for_querier(merged)
        return merged, frozenset().union(*manifests)


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
        """Settle the epoch from its final PSR; a later copy is :data:`LATE`.

        The *manifest* the final PSR carries **is** the reporting subset
        ``R`` the querier evaluates over.  A
        :class:`~repro.errors.SecurityError` rejects the epoch under its
        class name instead of propagating.
        """
        pending = self._open.pop(epoch, None)
        if pending is None:
            self.late[epoch] += 1
            return LATE
        attempted, pre_failed, started_at = pending
        recovery = EpochRecovery(
            epoch=epoch,
            attempted=attempted,
            survivors=manifest,
            pre_failed=pre_failed,
            converged=True,
        )
        record = EpochRecord(epoch, recovery, completion_latency=now - started_at)
        if self.evaluate:
            try:
                record.result = self.role.evaluate(
                    epoch, psr, reporting_sources=recovery.reporting_subset(self.num_sources)
                )
            except SecurityError as exc:
                record.security_failure = type(exc).__name__
        self.records[epoch] = record
        return DELIVERED

    def expire(self, epoch: int) -> EpochRecord:
        """The deadline passed: settle the epoch as lost unless it settled.

        ``MessageLost`` (sources attempted but the network or an adversary
        swallowed every path) stays distinct from ``NoResult`` (no source
        attempted: all failed or down).
        """
        pending = self._open.pop(epoch, None)
        if pending is not None:
            attempted, pre_failed, _ = pending
            recovery = EpochRecovery(
                epoch=epoch,
                attempted=attempted,
                survivors=frozenset(),
                pre_failed=pre_failed,
                converged=False,
            )
            self.records[epoch] = EpochRecord(
                epoch, recovery, security_failure="MessageLost" if attempted else "NoResult"
            )
        record = self.records.get(epoch)
        if record is None:
            raise SimulationError(f"querier never opened epoch {epoch}")
        return record


#: ``send(sender, receiver, edge, epoch, psr, manifest)``: put one PSR on
#: its hop.  The callee owns delivery and calls :meth:`EpochDriver.deliver`
#: with every first copy that reaches *receiver*.
SendFn = Callable[[int, int, EdgeClass, int, "PartialStateRecord", frozenset[int]], None]


class EpochDriver:
    """Runs the epoch machine on a timer: starts, deadlines, deliveries.

    It is handed its timer as two plain callables, ``now()`` and
    ``call_later(delay, fn)``, and the network as one, *send*.  Per epoch, :meth:`start`
    plans it, opens the live inboxes and the querier, initializes and
    sends the attempted sources' PSRs, then arms each live aggregator's
    merge deadline (in ``plan.expected`` order) and the querier's
    expiry.  :meth:`deliver` takes each first copy: an aggregator whose
    inbox completes merges at once (the early merge), and every merge
    forwards up :attr:`EpochPlanner.uplink`.  No timer is ever
    cancelled: a deadline that finds its inbox closed does nothing.
    """

    def __init__(
        self,
        planner: EpochPlanner,
        workload: "Workload",
        *,
        sources: Mapping[int, "SourceRole"],
        aggregators: Mapping[int, "AggregatorRole"],
        querier: "QuerierRole",
        now: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], object],
        send: SendFn,
        evaluate: bool = True,
        on_settled: Callable[[EpochRecord], None] | None = None,
    ) -> None:
        tree = planner.tree
        self.planner = planner
        self.workload = workload
        self.sources = sources
        self.mergers = {
            aid: HoldAndWait(aid, role, is_root=(aid == tree.root_id))
            for aid, role in aggregators.items()
        }
        self.querier = QuerierEpochs(querier, num_sources=tree.num_sources, evaluate=evaluate)
        self._now = now
        self._call_later = call_later
        self._send = send
        #: Source → the singleton manifest of its reports, built on its
        #: first report rather than once per epoch.
        self._manifests: dict[int, frozenset[int]] = {}
        #: Called once per epoch with its record, when it settles.
        self._on_settled = on_settled

    def start(self, epoch: int) -> None:
        """Open the epoch everywhere, send the sources' PSRs, arm the deadlines."""
        planner = self.planner
        plan = planner.plan(epoch)
        for aid, expected in plan.expected.items():
            self.mergers[aid].open(epoch, expected)
        attempted = plan.attempted
        self.querier.open(epoch, attempted, plan.pre_failed, started_at=self._now())
        manifests = self._manifests
        for sid in planner.tree.source_ids:
            if sid in attempted:
                psr = self.sources[sid].initialize(epoch, self.workload(sid, epoch))
                manifest = manifests.get(sid)
                if manifest is None:
                    manifest = manifests[sid] = frozenset((sid,))
                receiver, edge = planner.uplink[sid]
                self._send(sid, receiver, edge, epoch, psr, manifest)
        # Only live aggregators hold an inbox, so only they get a deadline.
        for aid in plan.expected:
            self._call_later(planner.merge_offset[aid], lambda a=aid: self._merge(epoch, a))
        self._call_later(planner.querier_offset, lambda: self._expire(epoch))

    def deliver(
        self, receiver: int, epoch: int, psr: "PartialStateRecord", manifest: frozenset[int]
    ) -> str:
        """Hand a first copy to *receiver*'s machine; returns its disposition."""
        if receiver == QUERIER_NODE_ID:
            disposition = self.querier.offer(epoch, psr, manifest, now=self._now())
            if disposition == DELIVERED and self._on_settled is not None:
                self._on_settled(self.querier.records[epoch])
            return disposition
        disposition, complete = self.mergers[receiver].offer(epoch, psr, manifest)
        if complete:
            self._merge(epoch, receiver)  # early merge
        return disposition

    def records(self) -> list[EpochRecord]:
        """Every settled epoch in epoch order, with the run's late copies folded in.

        Called once the run drained, so stragglers that landed after their
        epoch settled count too: Σ ``late_arrivals`` equals the hop ledger's
        ``late_frames``.
        """
        late = Counter(self.querier.late)
        for merger in self.mergers.values():
            late.update(merger.late)
        settled = self.querier.records
        records = [settled[epoch] for epoch in sorted(settled)]
        for record in records:
            record.late_arrivals = late[record.epoch]
        return records

    def _merge(self, epoch: int, aid: int) -> None:
        forward = self.mergers[aid].close(epoch)
        if forward is not None:
            receiver, edge = self.planner.uplink[aid]
            self._send(aid, receiver, edge, epoch, *forward)

    def _expire(self, epoch: int) -> None:
        if epoch in self.querier.records:
            return  # its final PSR settled it
        record = self.querier.expire(epoch)
        if self._on_settled is not None:
            self._on_settled(record)
