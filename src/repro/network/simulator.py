"""Epoch-driven simulation of the push-based aggregation process.

Each epoch (paper Section III-B):

1. every non-failed source draws its reading from the workload and runs
   the protocol's **initialization** phase, transmitting its PSR to its
   parent over the channel (where adversaries may act);
2. aggregators run the **merging** phase bottom-up, forwarding a single
   PSR toward the sink;
3. the querier runs the **evaluation** phase on the PSR received from
   the sink; security exceptions are recorded, not swallowed silently.

The simulator drives the clock-free epoch machine of
:mod:`repro.runtime.epoch` — the one the event runtime and the TCP
cluster drive — in zero time.  Its querier is told the reporting subset
by the plan (the paper's reported failures), never by what was merged,
so a PSR dropped below the root ends in a rejected epoch, not a smaller
SUM.  Op counts, traffic per edge class and (optionally) radio energy
accumulate into the run's :class:`~repro.runtime.metrics.RunMetrics`; every hop is
reported to the optional ``observer`` as ``attempt`` then ``deliver``,
``decode_failure`` (a copy hold-and-wait refused) or ``drop`` — the
hop-event stream of the runtime and the cluster.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.network.channel import Channel
from repro.network.energy import EnergyLedger, EnergyModel
from repro.network.messages import QUERIER_NODE_ID, DataMessage, Workload
from repro.network.topology import AggregationTree
from repro.protocols.base import OpCounter, PartialStateRecord, SecureAggregationProtocol
from repro.runtime.epoch import EpochPlanner, HoldAndWait, settle_final, settle_lost
from repro.runtime.faults import FaultPlan, NodeOutage
from repro.runtime.transport import DECODE_FAILURE, DELIVERED, TransportObserver, emit_hop
from repro.runtime.metrics import EpochRecord, RunMetrics
from repro.utils.validation import check_positive_int

__all__ = [
    "SimulationConfig",
    "NetworkSimulator",
    "QUERIER_NODE_ID",
    "Workload",
    "naive_collection_traffic",
]


@dataclass
class SimulationConfig:
    """Knobs for a simulation run."""

    #: Number of epochs to execute (paper: 20).
    num_epochs: int = 20
    #: First epoch index; epochs are ``start_epoch … start_epoch+num-1``.
    #: Starts at 1 because epoch 0 is reserved for setup/broadcast tests.
    start_epoch: int = 1
    #: Attach an energy model to account radio energy per node.
    energy_model: EnergyModel | None = None
    #: When False, querier evaluation is skipped (pure network runs).
    evaluate: bool = True
    #: Source ids that have permanently failed (reported to the querier).
    failed_sources: frozenset[int] = field(default_factory=frozenset)
    #: ``(kind, attrs)`` hook fed every hop (``attempt`` then ``deliver``,
    #: ``decode_failure`` or ``drop``) — the shape of
    #: ``RuntimeConfig.observer`` and ``ClusterConfig.observer``.  Purely
    #: observational.
    observer: TransportObserver | None = field(default=None, repr=False)


class NetworkSimulator:
    """Binds a protocol, a topology and a workload into a runnable system."""

    def __init__(
        self,
        protocol: SecureAggregationProtocol,
        tree: AggregationTree,
        workload: Workload,
        config: SimulationConfig | None = None,
    ) -> None:
        if tree.num_sources != protocol.num_sources:
            raise SimulationError(
                f"topology has {tree.num_sources} sources but protocol was set up "
                f"for {protocol.num_sources}"
            )
        self.protocol = protocol
        self.tree = tree
        self.workload = workload
        self.config = config or SimulationConfig()
        # Every hop transmits the PSR's real byte frame (encode →
        # adversary → decode), with measured frame bytes cross-checked
        # against the analytic wire_size() per message.
        self.channel = Channel(codec=protocol.wire_codec())

        # Role instantiation — the protocol's setup phase already ran in
        # its constructor; here each party receives its role object.
        self.source_ops = OpCounter()
        self.aggregator_ops = OpCounter()
        self.querier_ops = OpCounter()
        self._sources = {
            sid: protocol.create_source(sid, ops=self.source_ops) for sid in tree.source_ids
        }
        self._mergers = {
            aid: HoldAndWait(
                aid,
                protocol.create_aggregator(ops=self.aggregator_ops),
                is_root=(aid == tree.root_id),
            )
            for aid in tree.aggregator_ids
        }
        self._querier = protocol.create_querier(ops=self.querier_ops)
        self._planner = EpochPlanner(
            tree,
            hold_time=0.0,
            querier_slack=0.0,
            failed_sources=self.config.failed_sources,
            faults=FaultPlan(),
        )
        self._energy = (
            EnergyLedger(self.config.energy_model) if self.config.energy_model else None
        )

    # ------------------------------------------------------------------
    # Failure injection (paper Section IV-B, "Discussion")
    # ------------------------------------------------------------------

    def fail_source_at(self, source_id: int, epochs: Iterable[int]) -> None:
        """Mark *source_id* as failed (and reported) for the given epochs."""
        if source_id not in self._sources:
            raise SimulationError(f"unknown source {source_id}")
        outages = tuple(NodeOutage(source_id, epoch, epoch) for epoch in epochs)
        self._planner.faults.outages += outages

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, num_epochs: int | None = None) -> RunMetrics:
        """Execute the configured number of epochs and return the metrics.

        Every call is a measured run of its own: traffic, op counts and
        energy start from zero, and the record holds copies that later
        runs on this simulator leave untouched.
        """
        epochs = num_epochs if num_epochs is not None else self.config.num_epochs
        check_positive_int("num_epochs", epochs)
        self.channel.begin_run()
        # Zeroed in place: the roles hold these counters.
        counters = (self.source_ops, self.aggregator_ops, self.querier_ops)
        for counter in counters:
            counter.reset()
        if self._energy is not None:
            self._energy.spent_by_node.clear()
        records = [self._execute_epoch(self.config.start_epoch + i) for i in range(epochs)]
        source_ops, aggregator_ops, querier_ops = (counter.copy() for counter in counters)
        return RunMetrics(
            substrate="network",
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            epochs=records,
            traffic=self.channel.ledger,
            source_ops=source_ops,
            aggregator_ops=aggregator_ops,
            querier_ops=querier_ops,
            energy_by_node=dict(self._energy.spent_by_node) if self._energy is not None else {},
        )

    def run_epoch(self, epoch: int) -> EpochRecord:
        """Execute one epoch as its own measured run (fresh traffic ledger).

        :meth:`run` accumulates one ledger across its epochs; a bare
        ``run_epoch`` is a run of its own and must not inherit frame
        bytes from whatever ran on this simulator before.
        """
        self.channel.begin_run()
        return self._execute_epoch(epoch)

    def _execute_epoch(self, epoch: int) -> EpochRecord:
        """One epoch's work, accounted into the channel's current ledger."""
        plan = self._planner.plan(epoch)
        for aid, expected in plan.expected.items():
            self._mergers[aid].open(epoch, expected)
        for sid in self.tree.source_ids:
            if sid in plan.attempted:
                psr = self._sources[sid].initialize(epoch, self.workload(sid, epoch))
                self._send(sid, epoch, psr)
        final = None
        for aid in plan.expected:  # bottom-up, so the root closes last
            forward = self._mergers[aid].close(epoch)
            if forward is not None:
                final = self._send(aid, epoch, forward[0])
        if final is None:
            return settle_lost(epoch, attempted=plan.attempted, pre_failed=plan.pre_failed)
        return settle_final(
            self._querier,
            epoch,
            final,
            attempted=plan.attempted,
            manifest=plan.attempted,
            pre_failed=plan.pre_failed,
            num_sources=self.tree.num_sources,
            evaluate=self.config.evaluate,
        )

    def _send(
        self, sender: int, epoch: int, psr: PartialStateRecord
    ) -> PartialStateRecord | None:
        """One hop up the tree, radio energy charged; the PSR, when it
        reached the querier.

        A PSR delivered to an aggregator goes into its hold-and-wait inbox
        with an empty manifest: the plan, not the merge, names the
        reporting subset here.  The observer hears ``attempt``, then
        ``drop`` (the channel returned nothing) or the disposition the
        receiver gave the copy: ``deliver``, or ``decode_failure`` for a
        copy hold-and-wait refused.
        """
        receiver, edge = self._planner.uplink[sender]
        message = DataMessage(sender, receiver, epoch, psr)
        if self._energy is not None:
            size = message.wire_size()
            self._energy.on_transmit(sender, size, self.tree.node(sender).link_distance_m)
            if receiver != QUERIER_NODE_ID:
                self._energy.on_receive(receiver, size)
        observer = self.config.observer
        if observer is not None:
            hop = (sender, receiver, edge, epoch, 0, None)
            emit_hop(observer, "attempt", *hop)
        delivered = self.channel.transmit(message, edge)
        if delivered is None:
            if observer is not None:
                emit_hop(observer, "drop", *hop, cause="channel")
            return None
        if receiver == QUERIER_NODE_ID:
            disposition = DELIVERED
        else:
            disposition, _ = self._mergers[receiver].offer(epoch, delivered.psr, frozenset())
            if disposition == DECODE_FAILURE:
                # Refused for a forged header epoch.  No ARQ counts arrivals
                # here, so the receiver half's counter takes it.
                self.channel.ledger.edge(edge).channel_decode_failures += 1
        if observer is not None:
            emit_hop(observer, disposition, *hop)
        return delivered.psr if receiver == QUERIER_NODE_ID else None


def naive_collection_traffic(
    tree: AggregationTree,
    reading_bytes: int,
    *,
    energy_model: EnergyModel | None = None,
) -> tuple[dict[int, int], EnergyLedger | None]:
    """Traffic of the *naive* scheme the paper's introduction argues against.

    Without in-network aggregation every raw reading is relayed hop by
    hop to the sink, so a node forwards one reading per source in its
    subtree.  Returns per-node transmitted bytes for one epoch (and an
    energy ledger when a model is given) — used by the energy example to
    reproduce the "nodes closer to the sink die first" effect.
    """
    check_positive_int("reading_bytes", reading_bytes)
    tx_bytes: dict[int, int] = {}
    ledger = EnergyLedger(energy_model) if energy_model is not None else None
    for node in tree:
        # The root forwards every reading to the querier.
        size = len(tree.leaves_under(node.node_id)) * reading_bytes
        tx_bytes[node.node_id] = size
        if ledger is not None:
            ledger.on_transmit(node.node_id, size, node.link_distance_m)
            if not node.is_source:
                ledger.on_receive(node.node_id, size)
    return tx_bytes, ledger
