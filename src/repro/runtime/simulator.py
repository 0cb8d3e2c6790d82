"""The fault-injecting event runtime driving epochs end to end.

:class:`RuntimeSimulator` executes the same aggregation process as
:class:`~repro.network.simulator.NetworkSimulator` — initialization at
the sources, bottom-up merging, evaluation at the querier — but over a
*faulty network* instead of a lossless function call chain:

* every hop goes through the per-hop ARQ of :mod:`repro.runtime.hop`
  (ACKs, timeouts, bounded retransmission with exponential backoff),
  driven by :mod:`repro.runtime.transport` over the keyed fault oracle
  of :mod:`repro.runtime.faults` — the one the TCP cluster uses;
* aggregators **hold-and-wait**: each epoch they merge whatever
  children delivered by their deadline (``hold_time ×`` node height) —
  or immediately once every expected child arrived — and forward the
  merged PSR together with the manifest of contributing source ids;
* the querier converts an incomplete manifest into the paper's
  reported-failure subset (Section IV-B) and evaluates the exact SUM
  over the survivors — graceful degradation instead of a spurious
  :class:`~repro.errors.IntegrityError`.

The runtime reuses the existing role objects and
:class:`~repro.network.channel.Channel` unchanged, so every adversary
interceptor from :mod:`repro.attacks` works here too — and sees
retransmissions as extra attack opportunities, exactly like a real
radio.  All scheduling is logical-clock based and seeded; see
:meth:`RuntimeRunMetrics.ledger` for the determinism contract.  Every
run ends by checking the hop ledger's conservation laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.network.simulator import QUERIER_NODE_ID, Workload
from repro.network.topology import AggregationTree
from repro.protocols.base import (
    OpCounter,
    PartialStateRecord,
    SecureAggregationProtocol,
)
from repro.runtime.events import EventScheduler
from repro.runtime.faults import FaultPlan, KeyedFaultInjector
from repro.runtime.hop import LATE, RetransmitPolicy, TransportObserver
from repro.runtime.metrics import RuntimeEpochMetrics, RuntimeRunMetrics
from repro.runtime.recovery import (
    Settlement,
    expected_contributions,
    settle_final,
    settle_lost,
)
from repro.runtime.transport import ReliableTransport
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
    #: Seed for every runtime randomness stream (links, backoff jitter).
    seed: int = 0
    #: When False, querier evaluation is skipped (pure transport runs).
    evaluate: bool = True
    #: Source ids that are known-failed up front (never report).
    failed_sources: frozenset[int] = field(default_factory=frozenset)
    #: Selects nothing: link verdicts always come from the keyed oracle
    #: the TCP cluster uses.  Accepted as ``True`` for existing callers.
    keyed_faults: bool = True

    def __post_init__(self) -> None:
        check_positive_int("num_epochs", self.num_epochs)
        if not self.keyed_faults:
            raise ConfigurationError(
                "the sequential fault streams are gone; the runtime always uses "
                "the keyed fault oracle (keyed_faults=True)"
            )
        if self.epoch_interval <= 0 or self.hold_time <= 0 or self.querier_slack < 0:
            raise SimulationError(
                "epoch_interval and hold_time must be positive, querier_slack non-negative"
            )


class _EpochState:
    """Mutable per-epoch bookkeeping while the epoch is in flight."""

    __slots__ = (
        "epoch",
        "start_time",
        "attempted",
        "pre_failed",
        "inboxes",
        "merged",
        "expected",
        "finalized",
        "late_arrivals",
    )

    def __init__(
        self,
        epoch: int,
        start_time: float,
        attempted: frozenset[int],
        pre_failed: frozenset[int],
        expected: dict[int, int],
    ) -> None:
        self.epoch = epoch
        self.start_time = start_time
        self.attempted = attempted
        self.pre_failed = pre_failed
        #: aggregator id -> [(psr, manifest), ...] in arrival order.
        self.inboxes: dict[int, list[tuple[PartialStateRecord, frozenset[int]]]] = {}
        self.merged: set[int] = set()
        #: aggregator id -> number of child contributions that may arrive.
        self.expected = expected
        self.finalized = False
        self.late_arrivals = 0


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
        # Codec-backed channel: the ARQ below transmits real byte frames
        # (encoded once per parcel, retransmitted byte-identically).
        self.channel = Channel(codec=protocol.wire_codec())
        self.scheduler = EventScheduler()
        self.keyed_injector = KeyedFaultInjector(self.config.plan, seed=self.config.seed)
        self.transport = ReliableTransport(
            self.scheduler,
            self.keyed_injector,
            self.channel,
            self.config.policy,
            seed=self.config.seed,
        )

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
        self._heights = self._node_heights()
        self._merge_schedule = tree.bottom_up_aggregators()
        self._states: dict[int, _EpochState] = {}
        self._metrics: RuntimeRunMetrics | None = None
        self._ran = False

    # ------------------------------------------------------------------
    # Topology precomputation
    # ------------------------------------------------------------------

    def _node_heights(self) -> dict[int, int]:
        """Height of every node (sources 0, aggregators 1 + max child)."""
        heights: dict[int, int] = {sid: 0 for sid in self.tree.source_ids}
        for aid in self.tree.bottom_up_aggregators():
            heights[aid] = 1 + max(heights[c] for c in self.tree.children(aid))
        return heights

    def _expected_contributions(self, attempted: frozenset[int]) -> dict[int, int]:
        """Per-aggregator early-merge counts (shared with the TCP cluster)."""
        return expected_contributions(self.tree, attempted)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def set_observer(self, observer: TransportObserver | None) -> None:
        """Install an observability hook over the whole runtime.

        The hook receives every hop event of the
        :class:`~repro.runtime.hop.HopEngine` (``attempt``, ``drop``,
        ``deliver``, ``duplicate``, ``late``, ``ack_lost``,
        ``give_up``).  :mod:`repro.obs` builds the unified trace from
        exactly this stream.
        """
        self.transport.engine.observer = observer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, num_epochs: int | None = None) -> RuntimeRunMetrics:
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

        self._metrics = RuntimeRunMetrics(
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
        )
        for offset in range(epochs):
            epoch = self.config.start_epoch + offset
            self.scheduler.call_at(
                offset * self.config.epoch_interval,
                lambda e=epoch: self._start_epoch(e),
            )
        self.scheduler.run()

        metrics = self._metrics
        metrics.epochs.sort(key=lambda em: em.epoch)
        for em in metrics.epochs:
            # Stragglers can arrive (and be classified late) after an
            # epoch finalized; fold in the final tally.
            em.late_arrivals = self._states[em.epoch].late_arrivals
        metrics.transport = self.transport.ledger
        metrics.traffic = self.channel.counters
        metrics.source_ops = self.source_ops
        metrics.aggregator_ops = self.aggregator_ops
        metrics.querier_ops = self.querier_ops
        metrics.events_processed = self.scheduler.events_processed
        for em in metrics.epochs:
            metrics.recovery.record(em.recovery)
        metrics.transport.check_conservation()
        return metrics

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def _start_epoch(self, epoch: int) -> None:
        now = self.scheduler.now
        # A source down this epoch counts as a reported failure.
        attempted = frozenset(
            sid
            for sid in self.tree.source_ids
            if sid not in self.config.failed_sources
            and not self.config.plan.node_down(sid, epoch)
        )
        state = _EpochState(
            epoch,
            now,
            attempted,
            frozenset(self.tree.source_ids) - attempted,
            self._expected_contributions(attempted),
        )
        self._states[epoch] = state

        for sid in self.tree.source_ids:
            if sid not in attempted:
                continue
            value = self.workload(sid, epoch)
            psr = self._sources[sid].initialize(epoch, value)
            parent = self.tree.parent(sid)
            if parent is None:
                raise SimulationError(f"source {sid} has no parent aggregator")
            self.transport.send(
                DataMessage(sid, parent, epoch, psr),
                EdgeClass.SOURCE_TO_AGGREGATOR,
                frozenset((sid,)),
                on_deliver=self._make_deliver(epoch),
            )

        for aid in self._merge_schedule:
            self.scheduler.call_at(
                now + self.config.hold_time * self._heights[aid],
                lambda a=aid, e=epoch: self._merge(e, a),
            )
        querier_deadline = (
            now
            + self.config.hold_time * (self._heights[self.tree.root_id] + 1)
            + self.config.querier_slack
        )
        self.scheduler.call_at(querier_deadline, lambda e=epoch: self._finalize_lost(e))

    def _make_deliver(self, epoch: int):
        def deliver(message: DataMessage, manifest: frozenset[int]) -> str | None:
            return self._on_delivery(epoch, message, manifest)

        return deliver

    def _on_delivery(
        self, epoch: int, message: DataMessage, manifest: frozenset[int]
    ) -> str | None:
        """Hand a first copy to its receiver; :data:`LATE` past the deadline."""
        state = self._states[epoch]
        if message.receiver == QUERIER_NODE_ID:
            return self._on_final(state, message, manifest)
        aid = message.receiver
        if aid in state.merged:
            state.late_arrivals += 1
            return LATE
        inbox = state.inboxes.setdefault(aid, [])
        inbox.append((message.psr, manifest))
        # Early merge: everything that can still arrive has arrived.
        if len(inbox) >= state.expected.get(aid, 0):
            self._merge(epoch, aid)
        return None

    def _merge(self, epoch: int, aid: int) -> None:
        state = self._states[epoch]
        if aid in state.merged:
            return  # early merge already ran; the deadline event no-ops
        state.merged.add(aid)
        received = state.inboxes.pop(aid, [])
        if not received:
            return  # whole subtree failed/undelivered this epoch
        psrs = [psr for psr, _ in received]
        manifest = frozenset().union(*(man for _, man in received))
        merged = self._aggregators[aid].merge(epoch, psrs)
        parent = self.tree.parent(aid)
        if parent is None:
            merged = self._aggregators[aid].finalize_for_querier(merged)
            receiver, edge = QUERIER_NODE_ID, EdgeClass.AGGREGATOR_TO_QUERIER
        else:
            receiver, edge = parent, EdgeClass.AGGREGATOR_TO_AGGREGATOR
        self.transport.send(
            DataMessage(aid, receiver, epoch, merged),
            edge,
            manifest,
            on_deliver=self._make_deliver(epoch),
        )

    # ------------------------------------------------------------------
    # Querier side: evaluation and recovery
    # ------------------------------------------------------------------

    def _on_final(
        self, state: _EpochState, message: DataMessage, manifest: frozenset[int]
    ) -> str | None:
        if state.finalized:
            state.late_arrivals += 1
            return LATE
        state.finalized = True
        settlement = settle_final(
            self._querier,
            state.epoch,
            message.psr,
            attempted=state.attempted,
            manifest=manifest,
            pre_failed=state.pre_failed,
            num_sources=self.tree.num_sources,
            evaluate=self.config.evaluate,
        )
        self._record(state, settlement, self.scheduler.now - state.start_time)
        return None

    def _finalize_lost(self, epoch: int) -> None:
        """Querier deadline: nothing arrived — record the epoch as lost."""
        state = self._states[epoch]
        if state.finalized:
            return  # the happy path already evaluated this epoch
        state.finalized = True
        settlement = settle_lost(epoch, attempted=state.attempted, pre_failed=state.pre_failed)
        self._record(state, settlement, 0.0)

    def _record(self, state: _EpochState, settlement: Settlement, latency: float) -> None:
        if self._metrics is None:
            raise SimulationError("epoch finalized outside an active run()")
        self._metrics.epochs.append(
            RuntimeEpochMetrics(
                epoch=state.epoch,
                recovery=settlement.recovery,
                result=settlement.result,
                security_failure=settlement.security_failure,
                completion_latency=latency,
                late_arrivals=state.late_arrivals,
            )
        )
