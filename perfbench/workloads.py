"""The three workloads, one per substrate, each driven from outside.

Every workload is built from one seed:

* readings come from :class:`repro.datasets.DomainScaledWorkload`
  (scale 100), pregenerated into a :class:`ReadingTable` before any
  timed region, so the program's workload callable is a table lookup;
* SIES keys come from the same seed;
* the fault seed of the lossy workloads is derived from it by
  :func:`oracle.screen_fault_seed`.

A workload runs in *batches*.  ``analytic-n1024`` keeps one simulator and
runs the next few epochs per batch.  The runtime and the cluster are
one-shot, so each batch builds a fresh substrate over the same seeds: the
runtime replays the same epochs, the cluster cycles through epoch blocks.
Building a substrate is the set-up the benchmark times.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_complete_tree
from repro.runtime.faults import FaultPlan
from repro.runtime.simulator import RuntimeConfig, RuntimeSimulator

from layers import TracedProtocol, idle_loop_factory
from oracle import screen_fault_seed
from spans import Tracer, instrument_methods

__all__ = ["ReadingTable", "Batch", "Phase", "Analytic", "Runtime", "Cluster", "WORKLOADS"]

FANOUT = 4
SCALE = 100
LOSS = 0.2
#: Distinct epochs of readings pregenerated; epoch ``e`` reads row ``(e-1) % rows``.
READING_ROWS = 8


class ReadingTable:
    """Pregenerated readings; calling it is the program's workload."""

    def __init__(self, num_sources: int, seed: int, rows: int = READING_ROWS) -> None:
        workload = DomainScaledWorkload(num_sources, scale=SCALE, seed=seed)
        self._rows = [
            [workload(sid, epoch) for sid in range(num_sources)] for epoch in range(1, rows + 1)
        ]

    def _row(self, epoch: int) -> list[int]:
        return self._rows[(epoch - 1) % len(self._rows)]

    def __call__(self, source_id: int, epoch: int) -> int:
        return self._row(epoch)[source_id]

    def total(self, epoch: int, sources=None) -> int:
        """The exact SUM over *sources* (all sources when ``None``)."""
        row = self._row(epoch)
        return sum(row) if sources is None else sum(row[sid] for sid in sources)


@dataclass(frozen=True)
class Batch:
    """One batch's measured time, epochs and epoch latencies."""

    seconds: float
    epochs: int
    accepted: int
    latencies_ms: list[float]
    #: Factor scaling this batch's timings to the reference host speed.
    scale: float = 1.0


@dataclass
class Phase:
    """What one measured phase (untraced or traced) saw."""

    epochs: int = 0
    #: Epochs not accepted, or accepted with a SUM other than the oracle's.
    failed: int = 0
    #: Accepted epochs whose SUM differs from the oracle's.
    wrong: int = 0
    #: Time inside the program's measured entry points.
    seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    #: One entry per batch, in run order.
    batch_log: list[Batch] = field(default_factory=list)
    #: Set-up times of the phase's batches, scaled to reference speed.
    setups: list[float] = field(default_factory=list)
    survivors: int = 0
    attempted_sources: int = 0
    batches: int = 0
    #: Per-batch exact counts (traced phases only).
    counts: list[dict[str, int]] = field(default_factory=list)
    events: int = 0
    parcels: int = 0
    attempts: int = 0
    frames: int = 0
    oracle_attempts: int = 0
    evaluations: int = 0
    subset_evaluations: int = 0

    def open_batch(self) -> tuple[int, int, float, int]:
        return self.epochs, self.accepted, self.seconds, len(self.latencies_ms)

    def close_batch(self, opened: tuple[int, int, float, int]) -> None:
        epochs, accepted, seconds, latencies = opened
        self.batch_log.append(
            Batch(
                seconds=self.seconds - seconds,
                epochs=self.epochs - epochs,
                accepted=self.accepted - accepted,
                latencies_ms=self.latencies_ms[latencies:],
            )
        )
        self.batches += 1

    @property
    def accepted(self) -> int:
        return self.epochs - self.failed

    def record(self, *, accepted: bool, value, expected: int, survivors: int, attempted: int) -> None:
        self.epochs += 1
        self.survivors += survivors
        self.attempted_sources += attempted
        if not accepted:
            self.failed += 1
        elif value != expected:
            self.failed += 1
            self.wrong += 1


def _span_counts(tracer: Tracer) -> dict[str, int]:
    return {
        "prf": tracer.count("crypto.prf"),
        "codec": tracer.count("wire.encode") + tracer.count("wire.decode"),
        "transmits": tracer.count("network.channel"),
    }


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


class Analytic:
    """``NetworkSimulator``, lossless, closed loop of ``run_epoch`` calls."""

    name = "analytic-n1024"
    #: Root span of one epoch; its self time is the unattributed share.
    root = "analytic.run"
    unattributed = "analytic.run"

    def __init__(self, seed: int, *, n: int = 1024, epochs_per_batch: int = 4) -> None:
        self.seed = seed
        self.n = n
        self.epochs_per_batch = epochs_per_batch
        self.table = ReadingTable(n, seed)
        self.setup_seconds: list[float] = []
        #: The simulator each phase runs on, keyed by its tracer's id.
        self._sims: dict[int | None, tuple[NetworkSimulator, TracedProtocol | None]] = {}
        self._next_epoch = 1

    def _setup(self, tracer: Tracer | None) -> tuple[NetworkSimulator, TracedProtocol | None]:
        started = time.perf_counter()
        facade = None
        protocol = SIESProtocol(self.n, seed=self.seed)
        if tracer is not None:
            protocol = facade = TracedProtocol(protocol, tracer)
        sim = NetworkSimulator(protocol, build_complete_tree(self.n, FANOUT), self.table)
        if tracer is None:
            self.setup_seconds.append(time.perf_counter() - started)
        else:
            instrument_methods(tracer, sim.channel, "network.channel", ("transmit",))
        return sim, facade

    def batch(self, phase: Phase, tracer: Tracer | None) -> None:
        # Every untraced batch times one set-up, like the one-shot
        # workloads; the phase keeps running on the first simulator.
        key = id(tracer) if tracer is not None else None
        fresh = self._setup(tracer) if tracer is None or key not in self._sims else None
        sim, facade = self._sims.setdefault(key, fresh)
        opened = phase.open_batch()
        before = _span_counts(tracer) if tracer else None
        for _ in range(self.epochs_per_batch):
            epoch = self._next_epoch
            self._next_epoch += 1
            started = time.perf_counter()
            if tracer is None:
                em = sim.run_epoch(epoch)
            else:
                with tracer.span(self.root):
                    em = sim.run_epoch(epoch)
            elapsed = time.perf_counter() - started
            phase.seconds += elapsed
            phase.latencies_ms.append(1000.0 * elapsed)
            phase.record(
                accepted=em.result is not None and em.security_failure is None,
                value=em.result.value if em.result is not None else None,
                expected=self.table.total(epoch),
                survivors=em.sources_reporting,
                attempted=self.n,
            )
        if tracer is not None:
            phase.counts.append(_delta(_span_counts(tracer), before))
            # One facade serves the whole traced phase: its totals are the phase's.
            phase.evaluations = facade.evaluations
            phase.subset_evaluations = facade.subset_evaluations
        phase.close_batch(opened)


class Runtime:
    """``RuntimeSimulator``, 20 % keyed loss, one ``run()`` per batch."""

    name = "runtime-n256-loss20"
    root = "runtime.run"
    unattributed = "runtime.run"

    def __init__(self, seed: int, *, n: int = 256, epochs_per_batch: int = 8) -> None:
        self.seed = seed
        self.n = n
        self.epochs_per_batch = epochs_per_batch
        self.table = ReadingTable(n, seed)
        self.plan = FaultPlan.uniform_loss(LOSS)
        self.fault_seed, _ = screen_fault_seed(
            build_complete_tree(n, FANOUT),
            self.plan,
            RuntimeConfig().policy,
            seed,
            range(1, epochs_per_batch + 1),
        )
        self.setup_seconds: list[float] = []

    def batch(self, phase: Phase, tracer: Tracer | None) -> None:
        opened = phase.open_batch()
        started = time.perf_counter()
        protocol = SIESProtocol(self.n, seed=self.seed)
        if tracer is not None:
            protocol = TracedProtocol(protocol, tracer)
        sim = RuntimeSimulator(
            protocol,
            build_complete_tree(self.n, FANOUT),
            self.table,
            RuntimeConfig(
                num_epochs=self.epochs_per_batch,
                plan=self.plan,
                seed=self.fault_seed,
                keyed_faults=True,
            ),
        )
        setup = time.perf_counter() - started
        if tracer is None:
            self.setup_seconds.append(setup)
            started = time.perf_counter()
            metrics = sim.run()
        else:
            instrument_methods(tracer, sim.channel, "network.channel", ("transmit",))
            instrument_methods(
                tracer,
                sim.keyed_injector,
                "runtime.faults",
                ("data_verdict", "ack_verdict", "data_latencies", "ack_latency"),
            )
            instrument_methods(tracer, sim.scheduler, "runtime.engine", ("run",))
            before = _span_counts(tracer)
            started = time.perf_counter()
            with tracer.span(self.root):
                metrics = sim.run()
        elapsed = time.perf_counter() - started
        phase.seconds += elapsed
        # Epochs pipeline in logical time, so no single epoch has a wall
        # time of its own: a batch contributes its mean.
        phase.latencies_ms.append(1000.0 * elapsed / self.epochs_per_batch)
        for em in metrics.epochs:
            phase.record(
                accepted=em.accepted,
                value=em.result.value if em.result is not None else None,
                expected=self.table.total(em.epoch, em.recovery.survivors),
                survivors=len(em.recovery.survivors),
                attempted=len(em.recovery.attempted),
            )
        attempts = sum(metrics.transport.attempts.values())
        parcels = attempts - sum(metrics.transport.retransmissions.values())
        phase.events += metrics.events_processed
        phase.attempts += attempts
        phase.parcels += parcels
        if tracer is not None:
            counts = _delta(_span_counts(tracer), before)
            counts.update(events=metrics.events_processed, attempts=attempts, parcels=parcels)
            phase.counts.append(counts)
            phase.evaluations += protocol.evaluations
            phase.subset_evaluations += protocol.subset_evaluations
        phase.close_batch(opened)


class Cluster:
    """asyncio TCP cluster, 20 % keyed loss, ``ClusterConfig`` defaults
    (window 8: a closed loop with eight epochs in flight).

    Batch ``k`` runs epoch block ``k mod blocks``, so a run meets many
    fault patterns: the few epochs that wait for a merge deadline weigh
    the same in every run instead of depending on one block's luck.
    """

    name = "cluster-n64-loss20"
    root = "cluster.run"
    unattributed = "cluster.idle"

    def __init__(
        self, seed: int, *, n: int = 64, epochs_per_batch: int = 32, blocks: int = 24
    ) -> None:
        self.seed = seed
        self.n = n
        self.epochs_per_batch = epochs_per_batch
        self.blocks = blocks
        self.table = ReadingTable(n, seed)
        self.plan = FaultPlan.uniform_loss(LOSS)
        self.fault_seed, fates = screen_fault_seed(
            build_complete_tree(n, FANOUT),
            self.plan,
            ClusterConfig().policy,
            seed,
            range(1, blocks * epochs_per_batch + 1),
        )
        #: Oracle ARQ attempts of each epoch block.
        self.oracle_attempts = [
            sum(fate.attempts for fate in fates[b * epochs_per_batch : (b + 1) * epochs_per_batch])
            for b in range(blocks)
        ]
        self.setup_seconds: list[float] = []
        self._next_block = 0

    async def _traced_run(self, orchestrator: EpochOrchestrator, tracer: Tracer):
        with tracer.span(self.root):
            return await orchestrator.run()

    def batch(self, phase: Phase, tracer: Tracer | None) -> None:
        opened = phase.open_batch()
        block = self._next_block % self.blocks
        self._next_block += 1
        started = time.perf_counter()
        protocol = SIESProtocol(self.n, seed=self.seed)
        if tracer is not None:
            protocol = TracedProtocol(protocol, tracer)
        orchestrator = EpochOrchestrator(
            protocol,
            build_complete_tree(self.n, FANOUT),
            self.table,
            ClusterConfig(
                num_epochs=self.epochs_per_batch,
                start_epoch=1 + block * self.epochs_per_batch,
                plan=self.plan,
                seed=self.fault_seed,
            ),
        )
        build = time.perf_counter() - started
        # run() raises SimulationError if check_conservation finds a
        # silent drop; that fails the benchmark.
        if tracer is None:
            started = time.perf_counter()
            metrics = asyncio.run(orchestrator.run())
            # Set-up includes bind, connect and drain: run wall minus the
            # orchestrator's own measured phase.
            self.setup_seconds.append(build + time.perf_counter() - started - metrics.wall_seconds)
        else:
            instrument_methods(
                tracer, orchestrator.injector, "cluster.faults", ("data_verdict", "ack_verdict")
            )
            with asyncio.Runner(loop_factory=idle_loop_factory(tracer)) as runner:
                metrics = runner.run(self._traced_run(orchestrator, tracer))
        phase.seconds += metrics.wall_seconds
        for result in metrics.epochs:
            if result.recovery.converged:
                phase.latencies_ms.append(1000.0 * result.completion_latency)
            phase.record(
                accepted=result.accepted,
                value=result.result.value if result.result is not None else None,
                expected=self.table.total(result.epoch, result.recovery.survivors),
                survivors=len(result.recovery.survivors),
                attempted=len(result.recovery.attempted),
            )
        traffic = metrics.traffic
        phase.frames += traffic.total("frames_sent") + traffic.total("acks_sent")
        phase.attempts += traffic.total("attempts")
        phase.oracle_attempts += self.oracle_attempts[block]
        if tracer is not None:
            phase.evaluations += protocol.evaluations
            phase.subset_evaluations += protocol.subset_evaluations
        phase.close_batch(opened)


WORKLOADS = {cls.name: cls for cls in (Analytic, Runtime, Cluster)}
