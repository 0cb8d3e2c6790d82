"""Epoch-driven simulation of the push-based aggregation process.

Each epoch (paper Section III-B):

1. every non-failed source draws its reading from the workload and runs
   the protocol's **initialization** phase, transmitting its PSR to its
   parent over the channel (where adversaries may act);
2. aggregators run the **merging** phase bottom-up, forwarding a single
   PSR toward the sink;
3. the querier runs the **evaluation** phase on the PSR received from
   the sink; security exceptions are recorded, not swallowed silently.

The simulator charges wall-clock time to each role around the exact
phase calls, accumulates primitive-operation counts, traffic per edge
class and (optionally) radio energy, and reports everything as
:class:`~repro.network.metrics.RunMetrics`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.errors import SecurityError, SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.network.energy import EnergyLedger, EnergyModel
from repro.network.messages import DataMessage
from repro.network.metrics import EpochMetrics, RunMetrics
from repro.network.topology import AggregationTree
from repro.protocols.base import OpCounter, PartialStateRecord, SecureAggregationProtocol
from repro.utils.validation import check_positive_int

__all__ = ["SimulationConfig", "NetworkSimulator", "QUERIER_NODE_ID", "naive_collection_traffic"]

#: Sentinel node id for the querier (it is not part of the sensor tree).
QUERIER_NODE_ID = -1

#: A workload maps (source_id, epoch) to the source's integer reading.
Workload = Callable[[int, int], int]


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
        # Codec-backed channel: every hop transmits the PSR's real byte
        # frame (encode → adversary → decode), with measured frame bytes
        # cross-checked against the analytic wire_size() per message.
        self.channel = Channel(codec=protocol.wire_codec())

        # Role instantiation — the protocol's setup phase already ran in
        # its constructor; here each party receives its role object.
        self.source_ops = OpCounter()
        self.aggregator_ops = OpCounter()
        self.querier_ops = OpCounter()
        self._sources = {
            sid: protocol.create_source(sid, ops=self.source_ops) for sid in tree.source_ids
        }
        self._aggregators = {
            aid: protocol.create_aggregator(ops=self.aggregator_ops)
            for aid in tree.aggregator_ids
        }
        self._querier = protocol.create_querier(ops=self.querier_ops)
        self._merge_schedule = tree.bottom_up_aggregators()
        self._energy = (
            EnergyLedger(self.config.energy_model) if self.config.energy_model else None
        )
        #: Per-epoch dynamic failures injected by tests/attacks.
        self._epoch_failures: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Failure injection (paper Section IV-B, "Discussion")
    # ------------------------------------------------------------------

    def fail_source_at(self, source_id: int, epochs: Iterable[int]) -> None:
        """Mark *source_id* as failed (and reported) for the given epochs."""
        if source_id not in self._sources:
            raise SimulationError(f"unknown source {source_id}")
        for epoch in epochs:
            self._epoch_failures.setdefault(epoch, set()).add(source_id)

    def _reporting_sources(self, epoch: int) -> list[int]:
        failed = set(self.config.failed_sources) | self._epoch_failures.get(epoch, set())
        return [sid for sid in self.tree.source_ids if sid not in failed]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, num_epochs: int | None = None) -> RunMetrics:
        """Execute the configured number of epochs and return the metrics."""
        epochs = num_epochs if num_epochs is not None else self.config.num_epochs
        check_positive_int("num_epochs", epochs)
        self.channel.begin_run()
        metrics = RunMetrics(protocol=self.protocol.name, num_sources=self.tree.num_sources)
        for offset in range(epochs):
            epoch = self.config.start_epoch + offset
            metrics.epochs.append(self._execute_epoch(epoch))
        metrics.traffic = self.channel.counters
        metrics.source_ops = self.source_ops
        metrics.aggregator_ops = self.aggregator_ops
        metrics.querier_ops = self.querier_ops
        if self._energy is not None:
            metrics.energy_by_node = dict(self._energy.spent_by_node)
        return metrics

    def run_epoch(self, epoch: int) -> EpochMetrics:
        """Execute one epoch as its own measured run (fresh traffic counters).

        :meth:`run` accumulates one ledger across its epochs; a bare
        ``run_epoch`` is a run of its own and must not inherit frame
        bytes from whatever ran on this simulator before.
        """
        self.channel.begin_run()
        return self._execute_epoch(epoch)

    def _execute_epoch(self, epoch: int) -> EpochMetrics:
        """One epoch's work, accounted into the channel's current counters."""
        em = EpochMetrics(epoch=epoch)
        reporting = self._reporting_sources(epoch)
        all_reported = len(reporting) == self.tree.num_sources
        inboxes: dict[int, list[PartialStateRecord]] = {}

        # --- Initialization phase at every reporting source ------------
        for sid in reporting:
            value = self.workload(sid, epoch)
            start = time.perf_counter()
            psr = self._sources[sid].initialize(epoch, value)
            em.source_seconds_total += time.perf_counter() - start
            em.sources_reporting += 1
            parent = self.tree.parent(sid)
            if parent is None:
                raise SimulationError(f"source {sid} has no parent aggregator")
            self._deliver(DataMessage(sid, parent, epoch, psr), inboxes)

        # --- Merging phase, bottom-up -----------------------------------
        final_psr: PartialStateRecord | None = None
        sent_to_querier = False
        for aid in self._merge_schedule:
            received = inboxes.pop(aid, [])
            if not received:
                continue  # whole subtree failed/suppressed this epoch
            start = time.perf_counter()
            merged = self._aggregators[aid].merge(epoch, received)
            em.aggregator_seconds_total += time.perf_counter() - start
            em.aggregator_merges += 1
            parent = self.tree.parent(aid)
            receiver = QUERIER_NODE_ID if parent is None else parent
            if receiver == QUERIER_NODE_ID:
                start = time.perf_counter()
                merged = self._aggregators[aid].finalize_for_querier(merged)
                em.aggregator_seconds_total += time.perf_counter() - start
                message = DataMessage(aid, receiver, epoch, merged)
                sent_to_querier = True
                final_psr = self._deliver_to_querier(message)
            else:
                self._deliver(DataMessage(aid, receiver, epoch, merged), inboxes)

        # --- Evaluation phase at the querier -----------------------------
        if self.config.evaluate:
            if final_psr is None:
                # The paper treats a missing report as a trivially detected
                # DoS.  A final PSR dropped on its last hop (the channel
                # transmitted it, an interceptor returned None) is a
                # distinct event from no PSR ever being produced.
                em.security_failure = "MessageLost" if sent_to_querier else "NoResult"
            else:
                try:
                    start = time.perf_counter()
                    em.result = self._querier.evaluate(
                        epoch,
                        final_psr,
                        reporting_sources=None if all_reported else reporting,
                    )
                    em.querier_seconds = time.perf_counter() - start
                except SecurityError as exc:
                    em.querier_seconds = time.perf_counter() - start
                    em.security_failure = type(exc).__name__
        return em

    # ------------------------------------------------------------------
    # Delivery helpers
    # ------------------------------------------------------------------

    def _edge_class(self, message: DataMessage) -> EdgeClass:
        if message.receiver == QUERIER_NODE_ID:
            return EdgeClass.AGGREGATOR_TO_QUERIER
        if self.tree.node(message.sender).is_source:
            return EdgeClass.SOURCE_TO_AGGREGATOR
        return EdgeClass.AGGREGATOR_TO_AGGREGATOR

    def _deliver(
        self, message: DataMessage, inboxes: dict[int, list[PartialStateRecord]]
    ) -> None:
        edge = self._edge_class(message)
        self._account_energy(message, edge)
        delivered = self.channel.transmit(message, edge)
        if delivered is not None:
            inboxes.setdefault(delivered.receiver, []).append(delivered.psr)

    def _deliver_to_querier(self, message: DataMessage) -> PartialStateRecord | None:
        edge = self._edge_class(message)
        self._account_energy(message, edge)
        delivered = self.channel.transmit(message, edge)
        return delivered.psr if delivered is not None else None

    def _account_energy(self, message: DataMessage, edge: EdgeClass) -> None:
        if self._energy is None:
            return
        size = message.wire_size()
        sender_node = self.tree.node(message.sender)
        self._energy.on_transmit(message.sender, size, sender_node.link_distance_m)
        if message.receiver != QUERIER_NODE_ID:
            self._energy.on_receive(message.receiver, size)


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
        if node.node_id == tree.root_id:
            descendants = tree.num_sources  # root forwards everything to the querier
        else:
            descendants = len(tree.leaves_under(node.node_id))
        size = descendants * reading_bytes
        tx_bytes[node.node_id] = size
        if ledger is not None:
            ledger.on_transmit(node.node_id, size, node.link_distance_m)
            received = size if node.is_source else size
            if not node.is_source:
                ledger.on_receive(node.node_id, received)
    return tx_bytes, ledger
