"""Wiring and pacing: the whole tree as one asyncio TCP cluster.

:class:`EpochOrchestrator` owns the run lifecycle:

1. **bind** — every tree node starts its own server socket on
   ``127.0.0.1:0`` (kernel-assigned ports, no fixtures, no conflicts);
2. **connect** — each child opens its persistent uplink to its parent's
   port; the root connects to the querier;
3. **pipeline** — epochs launch in order through a bounded window: up
   to ``window`` epochs are in flight at once, exactly like the logical
   runtime's ``epoch_interval`` pipelining but paced by completion
   instead of a clock.  An epoch holds its slot until its querier has
   settled it and each parcel it sent was ACKed or given up;
4. **drain** — uplinks half-close bottom-up (sources first, root last)
   so every in-flight ACK is read before any socket dies, then servers
   stop and the run record's conservation check
   (:meth:`~repro.network.ledger.HopLedger.check_conservation`) proves
   no frame went unaccounted.

Every hop goes through one :class:`~repro.network.channel.Channel`
(:attr:`EpochOrchestrator.channel`), whose ledger is the run's one hop
ledger: interceptors from :mod:`repro.attacks` attach to it exactly as
on the other two substrates.

Both drivers of the event runtime run here on one
:class:`ScheduledClock`, the runtime's clock rule on the running loop:
each epoch on the :class:`~repro.runtime.epoch.EpochDriver`, and every
parcel of the fleet on one
:class:`~repro.runtime.transport.ReliableTransport`, whose ``wire`` is
the channel's ``emit`` and whose ``put`` writes envelopes on the
sender's uplink.  Every timer — merge deadline, querier expiry, ACK
timeout, epoch launch — runs in scheduled-time order, and a timer
waits for every frame written before it to be handled, so the loop's
speed changes when a decision is made, never what it decides: survivor
sets and ARQ attempts are a function of the seed
(:meth:`~repro.runtime.epoch.EpochPlanner.predict` says which).  The
driver's and the transport's ``now`` stay the loop's ``time``, so
completion latencies and ``wall_seconds`` are real seconds.  Every timer
and every chunk a connection reads go through the orchestrator's guard,
so the first error raised in a timer, a received frame, a launch or an
ARQ attempt fails the run: every epoch in flight stops waiting, no
further epoch launches, the fleet drains as usual, and
:meth:`EpochOrchestrator.run` raises that error.  Epoch deadlines are
*relative to the epoch's launch*, so a window-8 run has eight
independent sets of deadlines armed — the hold-and-wait schedule
(``hold_time × height``) is per epoch, not global.

Everything protocol-specific comes from the registered facades
(:func:`repro.protocols.registry.create_protocol`): the orchestrator
drives any protocol that provides a wire codec — sies, cmt, secoa_s,
secoa_m — through the same lifecycle.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter, defaultdict, deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import partial

from repro.errors import SimulationError
from repro.network.channel import Channel
from repro.network.ledger import EdgeClass
from repro.network.messages import QUERIER_NODE_ID, DataMessage, Workload
from repro.network.topology import AggregationTree
from repro.cluster.node import ClusterNode
from repro.protocols.base import PartialStateRecord, SecureAggregationProtocol
from repro.runtime.epoch import EpochDriver, EpochPlanner
from repro.runtime.events import EventScheduler, ScheduledEvent
from repro.runtime.faults import FaultPlan, KeyedFaultInjector, KeyedVerdict
from repro.runtime.metrics import RunMetrics
from repro.runtime.transport import ReliableTransport, RetransmitPolicy, TransportObserver
from repro.utils.validation import check_positive_int

__all__ = ["ClusterConfig", "EpochOrchestrator", "ScheduledClock", "run_cluster"]


def _default_policy() -> RetransmitPolicy:
    # Seconds of scheduled time (the RetransmitPolicy defaults are logical
    # ticks).  The worst *delivered* wait — last attempt firing after all
    # four backoffs — is 0.01·(1+1.5+2.25+3.375)·1.25 ≈ 0.10 s, under the
    # default hold_time, so even a fifth-attempt delivery beats its
    # aggregator's merge deadline: timers run in scheduled order, so a
    # slow loop cannot make it late.
    return RetransmitPolicy(max_retries=4, ack_timeout=0.01, backoff=1.5, jitter=0.25)


class ScheduledClock:
    """The cluster's clock rule: every timer in scheduled-time order, paced by the loop.

    Scheduled time lives on an :class:`~repro.runtime.events.EventScheduler`
    whose 0 is :meth:`start` on the loop clock.  A timer's scheduled time
    is the scheduled time of the callback that armed it plus its delay; a
    frame is handled at its *write time*, the scheduled time of the
    callback that wrote it.  A timer due at T runs only once

    * the loop clock has reached T (real pacing),
    * every timer due before T has run (the scheduler's order), and
    * every frame written at or before T has been handled,

    so a stalled loop delays decisions but never changes one.  One loop
    timer, armed for the scheduler's head, paces it; every received
    chunk and every dropped connection runs it again (:meth:`pump`).

    Frames in flight are kept in one FIFO per directed connection —
    TCP keeps their order — under a name both ends derive from the
    connection (:class:`repro.cluster.node.ClusterNode`): each entry is
    the frame's write time, its envelope's ``(uid, attempt)`` (checked
    against the frame read) and, for a data copy, its attempt's
    :class:`~repro.runtime.faults.KeyedVerdict`, which the receiver hands
    on instead of hashing it again.  Every timer runs through *guard*.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, guard: Callable[..., None]) -> None:
        self._loop = loop
        self._guard = guard
        self._scheduler = EventScheduler()
        self._origin = loop.time()
        #: Connection direction → (write time, (uid, attempt), verdict) of
        #: each frame not yet handled.
        self._in_flight: defaultdict[
            Hashable, deque[tuple[float, tuple[int, int], KeyedVerdict | None]]
        ] = defaultdict(deque)
        #: Write time → frames in flight written then.
        self._pending: Counter[float] = Counter()
        #: Directions whose reading end is gone: nothing written there is read.
        self._dead: set[Hashable] = set()
        self._wake: asyncio.TimerHandle | None = None
        self._wake_at: float | None = None
        self._stopped = False

    def start(self, fn: Callable[[], None]) -> None:
        """Set scheduled time 0 to the loop's time now, and run *fn* there."""
        self._origin = self._loop.time()
        self.call_later(0.0, fn)
        self.pump()

    def call_later(self, delay: float, fn: Callable[[], None]) -> ScheduledEvent:
        """Arm *fn* at the running callback's scheduled time plus *delay*."""
        return self._scheduler.call_later(delay, partial(self._guard, fn))

    def wrote(
        self, wire: Hashable, frame: tuple[int, int], verdict: KeyedVerdict | None = None
    ) -> None:
        """The envelope *frame* ``(uid, attempt)`` went onto the connection
        direction *wire* at the running callback's time."""
        if wire not in self._dead:
            at = self._scheduler.now
            self._in_flight[wire].append((at, frame, verdict))
            self._pending[at] += 1

    def arrive(
        self, wire: Hashable, frame: tuple[int, int], fn: Callable[..., None], *args: object
    ) -> None:
        """Handle the envelope *frame* read on *wire*: ``fn(verdict, *args)`` at its write time."""
        frames = self._in_flight.get(wire)
        written = frames.popleft() if frames else None
        if written is None or written[1] != frame:
            raise SimulationError(
                f"read envelope {frame} on {wire}, but the next one written there "
                f"was {written and written[1]}"
            )
        at, _, verdict = written
        self._handled(at)
        self._scheduler.run_at(at, partial(fn, verdict, *args))

    def receive(self, fn: Callable[..., None], *args: object) -> None:
        """Handle one received chunk through the guard, then run the timers it unblocked."""
        self._guard(fn, *args)
        self.pump()

    def discard(self, wire: Hashable) -> None:
        """The reading end of *wire* is gone: its frames in flight never will be handled."""
        self._dead.add(wire)
        for at, _, _ in self._in_flight.pop(wire, ()):
            self._handled(at)
        self.pump()

    def stop(self) -> None:
        """Run no further timer."""
        self._stopped = True
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    def pump(self) -> None:
        """Run every timer the rule lets run, in order; arm the loop timer for the next."""
        if not self._stopped:
            self._scheduler.run(until=self._waits)

    def _handled(self, at: float) -> None:
        left = self._pending[at] - 1
        if left:
            self._pending[at] = left
        else:
            del self._pending[at]

    def _waits(self) -> bool:
        """Whether the scheduler's head must wait (before each timer :meth:`pump` runs)."""
        head = self._scheduler.next_time()
        if head is None or self._stopped:
            return True
        if self._pending and min(self._pending) <= head:
            return True  # handling that frame pumps again
        due = self._origin + head
        if due > self._loop.time():
            if due != self._wake_at:
                if self._wake is not None:
                    self._wake.cancel()
                self._wake = self._loop.call_at(due, self._woken)
                self._wake_at = due
            return True
        return False

    def _woken(self) -> None:
        self._wake = self._wake_at = None
        self.pump()


@dataclass
class ClusterConfig:
    """Knobs for one TCP cluster run (times in seconds of the
    :class:`ScheduledClock`, which the loop's clock paces)."""

    num_epochs: int = 20
    #: First epoch index (epoch 0 is reserved for setup, as elsewhere).
    start_epoch: int = 1
    #: Pipelining bound: epochs concurrently in flight.
    window: int = 8
    #: Merge-deadline spacing per tree level: an aggregator at height h
    #: merges what arrived by ``epoch launch + hold_time * h`` (scheduled
    #: time).  Keep it above the ARQ's worst delivered wait or the
    #: survivor sets will (legitimately) fall below what the fault oracle
    #: predicts.
    hold_time: float = 0.25
    #: Extra wait at the querier beyond the root's deadline.
    querier_slack: float = 0.25
    #: Per-hop ARQ shape, in real seconds.
    policy: RetransmitPolicy = field(default_factory=_default_policy)
    #: What the stream layer does to envelopes (loss, duplication,
    #: epoch-windowed bursts and outages — the keyed schedule of
    #: repro.runtime.faults.KeyedFaultInjector).
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Seed of the keyed fault schedule (one digest per attempt, its
    #: backoff jitter included).
    seed: int = 0
    #: When False, querier evaluation is skipped (pure transport runs).
    evaluate: bool = True
    #: Source ids that are known-failed up front (never report).
    failed_sources: frozenset[int] = field(default_factory=frozenset)
    #: ``(kind, attrs)`` hook fed from the ARQ of every hop
    #: — the shape of ``SimulationConfig.observer`` and
    #: ``RuntimeConfig.observer``, so one
    #: :class:`~repro.obs.trace.TraceRecorder` traces any substrate.
    #: Purely observational: never consulted by the run itself.
    observer: TransportObserver | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive_int("num_epochs", self.num_epochs)
        check_positive_int("window", self.window)
        if not (math.isfinite(self.hold_time) and math.isfinite(self.querier_slack)):
            raise SimulationError("hold_time and querier_slack must be finite")
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
        #: Every hop's channel; ``channel.ledger`` is the run's one ledger.
        self.channel = Channel(protocol.wire_codec())
        self.injector = KeyedFaultInjector(self.config.plan, seed=self.config.seed)
        self._planner = EpochPlanner(
            tree,
            hold_time=self.config.hold_time,
            querier_slack=self.config.querier_slack,
            failed_sources=self.config.failed_sources,
            faults=self.config.plan,
        )
        #: Node id → its node, built on the running loop by :meth:`run`.
        self._nodes: dict[int, ClusterNode] = {}
        #: Epochs not launched yet, in order.
        self._unlaunched = deque(
            range(self.config.start_epoch, self.config.start_epoch + self.config.num_epochs)
        )
        #: Epoch in flight → its holds on a window slot: one until it
        #: settles, plus one per parcel still in its ARQ.
        self._in_flight: dict[int, int] = {}
        #: Built on the running loop by :meth:`run`: the clock, the epoch driver,
        #: and the future resolved once every epoch was released or the run failed.
        self._clock: ScheduledClock
        self._driver: EpochDriver
        self._done: asyncio.Future
        #: The first error of the run; once set, the driver is never entered again.
        self._failure: Exception | None = None
        self._ran = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _build(self, loop: asyncio.AbstractEventLoop) -> None:
        """Both drivers on one scheduled clock, and one node per tree node plus the querier."""
        protocol, tree = self.protocol, self.tree
        self._clock = clock = ScheduledClock(loop, self._guard)

        def send(
            sender: int, receiver: int, edge: EdgeClass, epoch: int,
            psr: PartialStateRecord, manifest: frozenset[int],
        ) -> None:
            """The driver's send: one parcel onto the ARQ, holding its epoch's slot."""
            self._in_flight[epoch] += 1
            transport.send(DataMessage(sender, receiver, epoch, psr, manifest), edge)

        self._driver = driver = EpochDriver(
            self._planner,
            self.workload,
            sources={sid: protocol.create_source(sid) for sid in tree.source_ids},
            aggregators={aid: protocol.create_aggregator() for aid in tree.aggregator_ids},
            querier=protocol.create_querier(),
            now=loop.time,
            call_later=clock.call_later,
            send=send,
            evaluate=self.config.evaluate,
            on_settled=lambda record: self._release(record.epoch),
        )
        transport = ReliableTransport(
            self.injector,
            self.config.policy,
            self.channel,
            now=loop.time,
            call_later=clock.call_later,
            wire=self.channel.emit,
            put=lambda parcel, frame, attempt, verdict: self._nodes[parcel.sender].put(
                parcel, frame, attempt, verdict
            ),
            deliver=driver.deliver,
            on_finished=lambda parcel: self._release(parcel.uid),
            observer=self.config.observer,
        )
        for node_id in (*tree.source_ids, *tree.aggregator_ids, QUERIER_NODE_ID):
            self._nodes[node_id] = ClusterNode(
                node_id, channel=self.channel, uplink=self._planner.uplink,
                transport=transport, clock=clock,
            )

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

    def _launch(self) -> None:
        """Start epochs in order while the window has room; resolve the run
        once every epoch has been released."""
        window = self.config.window
        while self._unlaunched and len(self._in_flight) < window:
            epoch = self._unlaunched.popleft()
            self._in_flight[epoch] = 1
            self._driver.start(epoch)
        if not self._in_flight and not self._done.done():
            self._done.set_result(None)

    def _release(self, epoch: int) -> None:
        """Drop one hold on *epoch*'s slot: it settled, or one of its parcels finished.

        No parcel opens once the epoch settled (merges come first); after a
        failure the slot is gone already.  The freed slot launches at the
        releasing callback's scheduled time."""
        holds = self._in_flight.get(epoch)
        if holds is None:
            return
        if holds > 1:
            self._in_flight[epoch] = holds - 1
        else:
            del self._in_flight[epoch]
            self._clock.call_later(0.0, self._launch)

    def _guard(self, fn: Callable[..., object], *args: object) -> None:
        """Enter the driver through *fn*, unless the run already failed.

        An error in a timer or in a received frame's handling would
        otherwise only reach the loop's log (and close the node's
        connection), and its epoch would never settle; instead it fails
        the run.  A frame that arrives after the failure is not handled.
        """
        if self._failure is None:
            try:
                fn(*args)
            except Exception as exc:  # sieslint: disable=SL005 — run() raises it
                self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        """Record the run's first error, give up every slot and end the run."""
        if self._failure is None:
            self._failure = exc
        self._in_flight.clear()
        if not self._done.done():
            self._done.set_result(None)

    async def run(self) -> RunMetrics:
        """Execute the configured epochs over real sockets.

        One-shot, like :meth:`RuntimeSimulator.run`: dedup state and the
        fault schedule are bound to this fleet.  Raises the run's first
        error (see the module docstring) after the fleet has drained.
        """
        if self._ran:
            raise SimulationError(
                "EpochOrchestrator.run is one-shot; construct a new orchestrator "
                "for an independent (and reproducible) run"
            )
        self._ran = True
        loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        self._build(loop)
        await self._bind_and_connect()
        started = loop.time()
        try:
            self._clock.start(self._launch)
            await self._done
        finally:
            self._clock.stop()
            wall_seconds = loop.time() - started
            try:
                await self._shutdown()
            except Exception:
                if self._failure is None:
                    raise
        if self._failure is not None:
            raise self._failure
        return RunMetrics(
            substrate="cluster",
            protocol=self.protocol.name,
            num_sources=self.tree.num_sources,
            seed=self.config.seed,
            # After the drain, so stragglers' late copies are counted too.
            epochs=self._driver.records(),
            traffic=self.channel.ledger,
            window=self.config.window,
            wall_seconds=wall_seconds,
        )


def run_cluster(
    protocol: SecureAggregationProtocol,
    tree: AggregationTree,
    workload: Workload,
    config: ClusterConfig | None = None,
) -> RunMetrics:
    """Synchronous entry point: build the fleet, run it, tear it down."""
    return asyncio.run(EpochOrchestrator(protocol, tree, workload, config).run())
