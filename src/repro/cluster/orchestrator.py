"""Wiring and pacing: the whole tree as one asyncio TCP cluster.

:class:`EpochOrchestrator` owns the run lifecycle:

1. **bind** — every tree node starts its own server socket on
   ``127.0.0.1:0`` (kernel-assigned ports, no fixtures, no conflicts);
2. **connect** — each child opens its persistent uplink to its parent's
   port; the root connects to the querier;
3. **pipeline** — epochs launch in order through a bounded window (an
   ``asyncio.Semaphore``): up to ``window`` epochs are in flight at
   once, exactly like the logical runtime's ``epoch_interval``
   pipelining but paced by completion instead of a clock;
4. **drain** — uplinks half-close bottom-up (sources first, root last)
   so every in-flight ACK is read before any socket dies, then servers
   stop and :meth:`~repro.runtime.hop.HopLedger.check_conservation`
   proves no frame went unaccounted.

Epoch deadlines are *relative to the epoch's launch*, so a window-8 run
has eight independent deadline clocks ticking — the hold-and-wait
schedule (``hold_time × height``) is per epoch, not global.

Everything protocol-specific comes from the registered facades
(:func:`repro.protocols.registry.create_protocol`): the orchestrator
drives any protocol that provides a wire codec — sies, cmt, secoa_s,
secoa_m — through the same lifecycle.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.network.channel import EdgeClass
from repro.network.simulator import QUERIER_NODE_ID, Workload
from repro.network.topology import AggregationTree
from repro.cluster.clock import ClusterClock
from repro.cluster.metrics import ClusterRunMetrics
from repro.cluster.node import AggregatorNode, ClusterNode, QuerierNode, SourceNode, require_codec
from repro.protocols.base import SecureAggregationProtocol
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.hop import HopLedger, RetransmitPolicy, TransportObserver
from repro.runtime.recovery import expected_contributions
from repro.utils.validation import check_positive_int

__all__ = ["ClusterConfig", "EpochOrchestrator", "run_cluster"]


def _default_policy() -> RetransmitPolicy:
    # Real-seconds ARQ shape (the RetransmitPolicy defaults are logical
    # ticks).  The worst *delivered* wait — last attempt firing after all
    # four backoffs — is 0.01·(1+1.5+2.25+3.375)·1.25 ≈ 0.10 s, well under
    # the default hold_time, so even a fifth-attempt delivery beats its
    # aggregator's merge deadline with margin to spare for loop lag.
    return RetransmitPolicy(max_retries=4, ack_timeout=0.01, backoff=1.5, jitter=0.25)


@dataclass
class ClusterConfig:
    """Knobs for one TCP cluster run (times in real seconds)."""

    num_epochs: int = 20
    #: First epoch index (epoch 0 is reserved for setup, as elsewhere).
    start_epoch: int = 1
    #: Pipelining bound: epochs concurrently in flight.
    window: int = 8
    #: Merge-deadline spacing per tree level: an aggregator at height h
    #: merges what arrived by ``epoch launch + hold_time * h``.  Keep it
    #: above the ARQ's worst delivered wait or the survivor sets will
    #: (legitimately) fall below what the fault oracle predicts.
    hold_time: float = 0.25
    #: Extra wait at the querier beyond the root's deadline.
    querier_slack: float = 0.25
    #: Per-hop ARQ shape, in real seconds.
    policy: RetransmitPolicy = field(default_factory=_default_policy)
    #: What the stream layer does to envelopes (loss, duplication,
    #: epoch-windowed bursts and outages — see repro.cluster.faults).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Seed for the fault schedule and backoff jitter streams.
    seed: int = 0
    #: When False, querier evaluation is skipped (pure transport runs).
    evaluate: bool = True
    #: Source ids that are known-failed up front (never report).
    failed_sources: frozenset[int] = field(default_factory=frozenset)
    #: ``(kind, attrs)`` hook fed from every node's ARQ and receive path
    #: — the same shape :meth:`RuntimeSimulator.set_observer` accepts,
    #: so one :class:`~repro.obs.adapters.TransportTraceAdapter` traces
    #: either substrate.  Purely observational: never consulted by the
    #: run itself.
    observer: TransportObserver | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive_int("num_epochs", self.num_epochs)
        check_positive_int("window", self.window)
        if self.hold_time <= 0 or self.querier_slack < 0:
            raise SimulationError(
                "hold_time must be positive and querier_slack non-negative"
            )


class EpochOrchestrator:
    """Builds the node fleet and pipelines epochs through it."""

    def __init__(
        self,
        protocol: SecureAggregationProtocol,
        tree: AggregationTree,
        workload: Workload,
        config: ClusterConfig | None = None,
    ) -> None:
        if tree.num_sources != protocol.num_sources:
            raise SimulationError(
                f"topology has {tree.num_sources} sources but protocol was set up "
                f"for {protocol.num_sources}"
            )
        self.protocol = protocol
        self.tree = tree
        self.workload = workload
        self.config = config or ClusterConfig()
        self.codec = require_codec(protocol.wire_codec(), protocol.name)
        self.clock = ClusterClock()
        self.injector = KeyedFaultInjector(self.config.plan, seed=self.config.seed)
        self.ledger = HopLedger()
        common = dict(
            ledger=self.ledger,
            injector=self.injector,
            policy=self.config.policy,
            clock=self.clock,
            seed=self.config.seed,
            observer=self.config.observer,
        )
        self.sources = {
            sid: SourceNode(sid, protocol.create_source(sid), self.codec, **common)
            for sid in tree.source_ids
        }
        self.aggregators = {
            aid: AggregatorNode(
                aid,
                protocol.create_aggregator(),
                self.codec,
                is_root=(aid == tree.root_id),
                edge_of_sender={
                    child: (
                        EdgeClass.SOURCE_TO_AGGREGATOR
                        if tree.node(child).is_source
                        else EdgeClass.AGGREGATOR_TO_AGGREGATOR
                    )
                    for child in tree.children(aid)
                },
                **common,
            )
            for aid in tree.aggregator_ids
        }
        self.querier = QuerierNode(
            QUERIER_NODE_ID,
            protocol.create_querier(),
            self.codec,
            num_sources=tree.num_sources,
            evaluate=self.config.evaluate,
            edge_of_sender={tree.root_id: EdgeClass.AGGREGATOR_TO_QUERIER},
            **common,
        )
        self._heights = self._node_heights()
        self._ran = False

    def _node_heights(self) -> dict[int, int]:
        heights: dict[int, int] = {sid: 0 for sid in self.tree.source_ids}
        for aid in self.tree.bottom_up_aggregators():
            heights[aid] = 1 + max(heights[c] for c in self.tree.children(aid))
        return heights

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _all_nodes(self) -> list[ClusterNode]:
        return [*self.sources.values(), *self.aggregators.values(), self.querier]

    async def _bind_and_connect(self) -> None:
        for node in self._all_nodes():
            await node.start()
        for sid, source in self.sources.items():
            parent = self.tree.parent(sid)
            if parent is None:
                raise SimulationError(f"source {sid} has no parent aggregator")
            await source.connect_uplink(
                parent, self.aggregators[parent].port, EdgeClass.SOURCE_TO_AGGREGATOR
            )
        for aid, aggregator in self.aggregators.items():
            parent = self.tree.parent(aid)
            if parent is None:
                await aggregator.connect_uplink(
                    QUERIER_NODE_ID, self.querier.port, EdgeClass.AGGREGATOR_TO_QUERIER
                )
            else:
                await aggregator.connect_uplink(
                    parent, self.aggregators[parent].port, EdgeClass.AGGREGATOR_TO_AGGREGATOR
                )

    async def _shutdown(self) -> None:
        # Bottom-up: leaves half-close first, so each parent sees EOF only
        # after all child traffic, ACKs everything, and only then does the
        # parent's own uplink close — no ACK is ever stranded in a buffer.
        for source in self.sources.values():
            await source.close_uplink()
        for aid in self.tree.bottom_up_aggregators():
            await self.aggregators[aid].close_uplink()
        for node in self._all_nodes():
            await node.stop()

    # ------------------------------------------------------------------
    # Epoch pipeline
    # ------------------------------------------------------------------

    async def _run_epoch(self, epoch: int, window: asyncio.Semaphore):
        async with window:
            # A source down this epoch counts as a reported failure.
            attempted = frozenset(
                sid
                for sid in self.tree.source_ids
                if sid not in self.config.failed_sources
                and not self.config.plan.node_down(sid, epoch)
            )
            pre_failed = frozenset(self.tree.source_ids) - attempted
            expected = expected_contributions(self.tree, attempted)
            self.querier.open_epoch(epoch, attempted, pre_failed)
            live = [aid for aid in self.tree.aggregator_ids if expected[aid] > 0]
            for aid in live:
                self.aggregators[aid].open_epoch(epoch, expected[aid])
            deadline = (
                self.config.hold_time * (self._heights[self.tree.root_id] + 1)
                + self.config.querier_slack
            )
            querier_task = asyncio.ensure_future(self.querier.run_epoch(epoch, deadline))
            others = [
                self.aggregators[aid].run_epoch(epoch, self.config.hold_time * self._heights[aid])
                for aid in live
            ] + [
                self.sources[sid].run_epoch(epoch, self.workload(sid, epoch))
                for sid in sorted(attempted)
            ]
            await asyncio.gather(querier_task, *others)
            return querier_task.result()

    async def run(self) -> ClusterRunMetrics:
        """Execute the configured epochs over real sockets.

        One-shot, like :meth:`RuntimeSimulator.run`: dedup state and the
        fault schedule are bound to this fleet.
        """
        if self._ran:
            raise SimulationError(
                "EpochOrchestrator.run is one-shot; construct a new orchestrator "
                "for an independent (and reproducible) run"
            )
        self._ran = True
        metrics = ClusterRunMetrics(
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
            window=self.config.window,
        )
        await self._bind_and_connect()
        started = self.clock.now()
        try:
            window = asyncio.Semaphore(self.config.window)
            results = await asyncio.gather(
                *(
                    self._run_epoch(self.config.start_epoch + offset, window)
                    for offset in range(self.config.num_epochs)
                )
            )
        finally:
            metrics.wall_seconds = self.clock.now() - started
            await self._shutdown()
        metrics.epochs = sorted(results, key=lambda r: r.epoch)
        for result in metrics.epochs:
            metrics.recovery.record(result.recovery)
        metrics.traffic = self.ledger
        self.ledger.check_conservation()
        return metrics


def run_cluster(
    protocol: SecureAggregationProtocol,
    tree: AggregationTree,
    workload: Workload,
    config: ClusterConfig | None = None,
) -> ClusterRunMetrics:
    """Synchronous entry point: build the fleet, run it, tear it down."""
    return asyncio.run(EpochOrchestrator(protocol, tree, workload, config).run())
