"""The fault-injecting event runtime driving epochs end to end.

:class:`RuntimeSimulator` executes the same aggregation process as
:class:`~repro.network.simulator.NetworkSimulator` — initialization at
the sources, bottom-up merging, evaluation at the querier — but over a
*faulty network* instead of a lossless function call chain:

* every hop goes through the per-hop ARQ of :mod:`repro.runtime.transport`
  (ACKs, timeouts, bounded retransmission with exponential backoff)
  over the keyed fault oracle of :mod:`repro.runtime.faults` — the ARQ
  and the oracle the TCP cluster uses;
* aggregators **hold-and-wait**: each epoch they merge whatever
  children delivered by their deadline (``hold_time ×`` node height) —
  or immediately once every expected child arrived — and forward the
  merged PSR together with the manifest of contributing source ids;
* the querier converts an incomplete manifest into the paper's
  reported-failure subset (Section IV-B) and evaluates the exact SUM
  over the survivors — graceful degradation instead of a spurious
  :class:`~repro.errors.IntegrityError`.

Those last two are the epoch machine of :mod:`repro.runtime.epoch`, run
by its :class:`~repro.runtime.epoch.EpochDriver` — the driver the TCP
cluster runs too.  This module builds the roles, hands the driver the
scheduler as its timer, and puts every PSR the driver sends onto the
ARQ, whose first copies go back to the driver.

The runtime reuses the existing role objects and
:class:`~repro.network.channel.Channel` unchanged, so every adversary
interceptor from :mod:`repro.attacks` works here too — and sees
retransmissions as extra attack opportunities, exactly like a real
radio.  All scheduling is logical-clock based and seeded; see
:meth:`~repro.runtime.metrics.RunMetrics.ledger` for the determinism
contract.  The run record checks the hop ledger's conservation laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import Workload
from repro.network.topology import AggregationTree
from repro.protocols.base import OpCounter, PartialStateRecord, SecureAggregationProtocol
from repro.runtime.epoch import EpochDriver, EpochPlanner
from repro.runtime.events import EventScheduler
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.metrics import RunMetrics
from repro.runtime.transport import RetransmitPolicy, TransportObserver, scheduled_transport
from repro.utils.validation import check_positive_int

__all__ = ["RuntimeConfig", "RuntimeSimulator"]


@dataclass
class RuntimeConfig:
    """Knobs for one event-runtime run."""

    num_epochs: int = 20
    #: First epoch index (epoch 0 is reserved for setup, as elsewhere).
    start_epoch: int = 1
    #: Logical time between consecutive epoch starts; epochs pipeline
    #: freely when smaller than an epoch's end-to-end span.
    epoch_interval: float = 500.0
    #: Merge-deadline spacing per tree level: an aggregator at height h
    #: merges what arrived by ``epoch_start + hold_time * h``.
    hold_time: float = 250.0
    #: Extra wait at the querier beyond the root's deadline before the
    #: epoch is declared unrecovered.
    querier_slack: float = 250.0
    #: Per-hop ARQ shape (see :class:`RetransmitPolicy`).
    policy: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    #: What the network does to packets (see :class:`FaultPlan`).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Seed of the keyed fault schedule (link fates, latencies, backoff jitter).
    seed: int = 0
    #: When False, querier evaluation is skipped (pure transport runs).
    evaluate: bool = True
    #: Source ids that are known-failed up front (never report).
    failed_sources: frozenset[int] = field(default_factory=frozenset)
    #: Selects nothing: link verdicts always come from the keyed oracle
    #: the TCP cluster uses.  Accepted as ``True`` for existing callers.
    keyed_faults: bool = True
    #: ``(kind, attrs)`` hook fed every hop event of the
    #: :class:`~repro.runtime.transport.ReliableTransport` (``attempt``, ``drop``,
    #: ``deliver``, ``duplicate``, ``late``, ``decode_failure``,
    #: ``ack_lost``, ``give_up``) — the shape of
    #: ``SimulationConfig.observer`` and ``ClusterConfig.observer``.
    #: Purely observational.
    observer: TransportObserver | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive_int("num_epochs", self.num_epochs)
        if not self.keyed_faults:
            raise ConfigurationError(
                "the sequential fault streams are gone; the runtime always uses "
                "the keyed fault oracle (keyed_faults=True)"
            )
        if not all(map(math.isfinite, (self.epoch_interval, self.hold_time, self.querier_slack))):
            raise SimulationError("epoch_interval, hold_time and querier_slack must be finite")
        if self.epoch_interval <= 0 or self.hold_time <= 0 or self.querier_slack < 0:
            raise SimulationError(
                "epoch_interval and hold_time must be positive, querier_slack non-negative"
            )


class RuntimeSimulator:
    """Runs a protocol over a lossy, latency-bearing, retransmitting network."""

    def __init__(
        self,
        protocol: SecureAggregationProtocol,
        tree: AggregationTree,
        workload: Workload,
        config: RuntimeConfig | None = None,
    ) -> None:
        if tree.num_sources != protocol.num_sources:
            raise SimulationError(
                f"topology has {tree.num_sources} sources but protocol was set up "
                f"for {protocol.num_sources}"
            )
        self.protocol = protocol
        self.tree = tree
        self.workload = workload
        self.config = config or RuntimeConfig()
        # The ARQ below transmits real byte frames through the channel
        # (encoded once per parcel, retransmitted byte-identically).
        self.channel = Channel(codec=protocol.wire_codec())
        self.scheduler = EventScheduler()
        self.keyed_injector = KeyedFaultInjector(self.config.plan, seed=self.config.seed)
        self.source_ops = OpCounter()
        self.aggregator_ops = OpCounter()
        self.querier_ops = OpCounter()
        self._driver = EpochDriver(
            EpochPlanner(
                tree,
                hold_time=self.config.hold_time,
                querier_slack=self.config.querier_slack,
                failed_sources=self.config.failed_sources,
                faults=self.config.plan,
            ),
            workload,
            sources={
                sid: protocol.create_source(sid, ops=self.source_ops) for sid in tree.source_ids
            },
            aggregators={
                aid: protocol.create_aggregator(ops=self.aggregator_ops)
                for aid in tree.aggregator_ids
            },
            querier=protocol.create_querier(ops=self.querier_ops),
            now=lambda: self.scheduler.now,
            call_later=self.scheduler.call_later,
            send=self._send,
            evaluate=self.config.evaluate,
        )
        self.transport = scheduled_transport(
            self.scheduler,
            self.keyed_injector,
            self.channel,
            self.config.policy,
            deliver=self._driver.deliver,
            observer=self.config.observer,
        )
        self._ran = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, num_epochs: int | None = None) -> RunMetrics:
        """Execute the configured epochs through the event loop.

        One-shot: transports, fault streams and dedup state are bound
        to this run, so build a fresh :class:`RuntimeSimulator` for a
        fresh run (the determinism tests rely on exactly that).
        """
        if self._ran:
            raise SimulationError(
                "RuntimeSimulator.run is one-shot; construct a new simulator "
                "for an independent (and reproducible) run"
            )
        self._ran = True
        epochs = num_epochs if num_epochs is not None else self.config.num_epochs
        check_positive_int("num_epochs", epochs)

        for offset in range(epochs):
            epoch = self.config.start_epoch + offset
            self.scheduler.call_at(
                offset * self.config.epoch_interval, lambda e=epoch: self._driver.start(e)
            )
        self.scheduler.run()

        return RunMetrics(
            substrate="runtime",
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
            epochs=self._driver.records(),
            traffic=self.transport.ledger,
            source_ops=self.source_ops,
            aggregator_ops=self.aggregator_ops,
            querier_ops=self.querier_ops,
            events_processed=self.scheduler.events_processed,
        )

    def _send(
        self,
        sender: int,
        receiver: int,
        edge: EdgeClass,
        epoch: int,
        psr: PartialStateRecord,
        manifest: frozenset[int],
    ) -> None:
        """One PSR onto the ARQ; its first copies go back to the driver."""
        self.transport.send(sender, receiver, edge, epoch, psr, manifest)
