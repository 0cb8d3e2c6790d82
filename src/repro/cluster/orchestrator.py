"""Wiring and pacing: the whole tree as one asyncio TCP cluster.

:class:`EpochOrchestrator` owns the run lifecycle:

1. **bind** — every tree node starts its own server socket on
   ``127.0.0.1:0`` (kernel-assigned ports, no fixtures, no conflicts);
2. **connect** — each child opens its persistent uplink to its parent's
   port; the root connects to the querier;
3. **pipeline** — epochs launch in order through a bounded window (an
   ``asyncio.Semaphore``): up to ``window`` epochs are in flight at
   once, exactly like the logical runtime's ``epoch_interval``
   pipelining but paced by completion instead of a clock.  An epoch
   holds its slot until its querier has settled it and every parcel it
   sent has finished its ARQ;
4. **drain** — uplinks half-close bottom-up (sources first, root last)
   so every in-flight ACK is read before any socket dies, then servers
   stop and :meth:`~repro.network.ledger.HopLedger.check_conservation`
   proves no frame went unaccounted.

Each epoch runs on the event runtime's
:class:`~repro.runtime.epoch.EpochDriver`, with the running loop's
``time`` and ``call_later`` as its timer and :meth:`ClusterNode.send_psr
<repro.cluster.node.ClusterNode.send_psr>` tasks as its sends.  Epoch
deadlines are *relative to the epoch's launch*, so a window-8 run has
eight independent sets of loop timers armed — the hold-and-wait schedule
(``hold_time × height``) is per epoch, not global.

Everything protocol-specific comes from the registered facades
(:func:`repro.protocols.registry.create_protocol`): the orchestrator
drives any protocol that provides a wire codec — sies, cmt, secoa_s,
secoa_m — through the same lifecycle.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.network.ledger import EdgeClass, HopLedger
from repro.network.messages import QUERIER_NODE_ID, Workload
from repro.network.topology import AggregationTree
from repro.cluster.metrics import ClusterRunMetrics
from repro.cluster.node import ClusterNode
from repro.protocols.base import PartialStateRecord, SecureAggregationProtocol
from repro.runtime.epoch import EpochDriver, EpochPlanner
from repro.runtime.metrics import EpochRecord
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.hop import RetransmitPolicy, TransportObserver
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
    #: — the shape of ``SimulationConfig.observer`` and
    #: ``RuntimeConfig.observer``, so one
    #: :class:`~repro.obs.trace.TraceRecorder` traces any substrate.
    #: Purely observational: never consulted by the run itself.
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
        self.codec = protocol.wire_codec()
        self.injector = KeyedFaultInjector(self.config.plan, seed=self.config.seed)
        self.ledger = HopLedger()
        self._planner = EpochPlanner(
            tree,
            hold_time=self.config.hold_time,
            querier_slack=self.config.querier_slack,
            failed_sources=self.config.failed_sources,
            faults=self.config.plan,
        )
        #: Node id → its node, built on the running loop by :meth:`run`.
        self._nodes: dict[int, ClusterNode] = {}
        #: Epoch in flight → (settled future, its parcels' ARQ tasks).
        self._in_flight: dict[int, tuple[asyncio.Future, list[asyncio.Task]]] = {}
        self._ran = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _build(self, loop: asyncio.AbstractEventLoop) -> EpochDriver:
        """The driver on *loop*'s timer, and one node per tree node plus the querier."""
        protocol, tree = self.protocol, self.tree

        def call_later(delay: float, fn: Callable[[], None]) -> None:
            loop.call_later(delay, self._fire, fn)

        driver = EpochDriver(
            self._planner,
            self.workload,
            sources={sid: protocol.create_source(sid) for sid in tree.source_ids},
            aggregators={aid: protocol.create_aggregator() for aid in tree.aggregator_ids},
            querier=protocol.create_querier(),
            now=loop.time,
            call_later=call_later,
            send=self._send,
            evaluate=self.config.evaluate,
            on_settled=self._settled,
        )
        for node_id in (*tree.source_ids, *tree.aggregator_ids, QUERIER_NODE_ID):
            self._nodes[node_id] = ClusterNode(
                node_id,
                codec=self.codec,
                uplink=self._planner.uplink,
                deliver=driver.deliver,
                ledger=self.ledger,
                injector=self.injector,
                policy=self.config.policy,
                seed=self.config.seed,
                now=loop.time,
                observer=self.config.observer,
            )
        return driver

    async def _bind_and_connect(self) -> None:
        for node in self._nodes.values():
            await node.start()
        for node_id, (receiver, _) in self._planner.uplink.items():
            await self._nodes[node_id].connect_uplink(self._nodes[receiver].port)

    async def _shutdown(self) -> None:
        # Bottom-up: leaves half-close first, so each parent sees EOF only
        # after all child traffic, ACKs everything, and only then does the
        # parent's own uplink close — no ACK is ever stranded in a buffer.
        for node_id in (*self.tree.source_ids, *self.tree.bottom_up_aggregators()):
            await self._nodes[node_id].close_uplink()
        for node in self._nodes.values():
            await node.stop()

    # ------------------------------------------------------------------
    # Epoch pipeline
    # ------------------------------------------------------------------

    def _send(
        self,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        epoch: int,
        psr: PartialStateRecord,
        manifest: frozenset[int],
    ) -> None:
        """The driver's send: one ARQ task on *sender*'s uplink, kept by its epoch."""
        _, parcels = self._in_flight[epoch]
        parcels.append(asyncio.ensure_future(self._nodes[sender].send_psr(epoch, psr, manifest)))

    def _settled(self, record: EpochRecord) -> None:
        self._in_flight[record.epoch][0].set_result(None)

    def _fire(self, fn: Callable[[], None]) -> None:
        """Run a driver timer; an error in it fails every epoch in flight
        (a timer's exception would otherwise only reach the loop's log,
        and an epoch whose expiry failed would never settle)."""
        try:
            fn()
        except Exception as exc:
            for settled, _ in self._in_flight.values():
                if not settled.done():
                    settled.set_exception(exc)
            raise

    async def _run_epoch(
        self, driver: EpochDriver, epoch: int, window: asyncio.Semaphore
    ) -> None:
        async with window:
            settled: asyncio.Future = asyncio.get_running_loop().create_future()
            parcels: list[asyncio.Task] = []
            self._in_flight[epoch] = (settled, parcels)
            driver.start(epoch)
            await settled
            # Merges happen before the settlement, so every parcel of the
            # epoch is already in the list: wait for each ARQ to finish.
            for parcel in parcels:
                await parcel
            del self._in_flight[epoch]

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
        loop = asyncio.get_running_loop()
        driver = self._build(loop)
        await self._bind_and_connect()
        started = loop.time()
        try:
            window = asyncio.Semaphore(self.config.window)
            await asyncio.gather(
                *(
                    self._run_epoch(driver, self.config.start_epoch + offset, window)
                    for offset in range(self.config.num_epochs)
                )
            )
        finally:
            wall_seconds = loop.time() - started
            await self._shutdown()
        self.ledger.check_conservation()
        return ClusterRunMetrics(
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
            window=self.config.window,
            # After the drain, so stragglers' late copies are counted too.
            epochs=driver.records(),
            traffic=self.ledger,
            wall_seconds=wall_seconds,
        )


def run_cluster(
    protocol: SecureAggregationProtocol,
    tree: AggregationTree,
    workload: Workload,
    config: ClusterConfig | None = None,
) -> ClusterRunMetrics:
    """Synchronous entry point: build the fleet, run it, tear it down."""
    return asyncio.run(EpochOrchestrator(protocol, tree, workload, config).run())
