"""Differential harness: the analytic simulator against an exact oracle.

The analytic :class:`~repro.network.simulator.NetworkSimulator` has one
epoch loop with two entry points, and the suite names them by how they
group epochs:

* **batched** — one ``run()`` call over the whole epoch range, one
  traffic ledger for the run;
* **sequential** — one ``run_epoch()`` call per epoch, each its own
  measured run.

Every scenario (a :class:`RunSpec`) is rebuilt from scratch for each
entry point — same keys, topology, failures and adversary, because
interceptors and channels are stateful — and checked twice:

:func:`assert_equivalent`
    both entry points agree bit for bit: channel ciphertexts, per-epoch
    SUMs and verdicts, the three op ledgers, and per-edge traffic;
:func:`assert_oracle`
    the run matches what the spec alone predicts —

    * every accepted epoch's SUM is the workload's exact sum over that
      epoch's reporting sources (never wrong-and-accepted);
    * every epoch the adversary or lossy link did not touch is
      accepted, and with ``touched_rejected`` every touched epoch is
      not;
    * the source ledger holds 2 ``hm256`` + 1 ``hm1`` per reporting
      source, and the querier ledger ``|contributors| + 1`` ``hm256``
      and ``|contributors|`` ``hm1`` per evaluated epoch;
    * S-A messages equal the number of reporting sources.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.attacks.adversary import Eavesdropper
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import EdgeClass, Interceptor
from repro.network.ledger import HopLedger
from repro.network.messages import DataMessage
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.base import SecureAggregationProtocol
from repro.runtime.metrics import RunMetrics
from repro.utils.rng import derive_seed

__all__ = [
    "RunSpec",
    "PathTrace",
    "LossyLink",
    "execute_path",
    "run_both_paths",
    "assert_equivalent",
    "assert_oracle",
    "count_combinations",
]


class LossyLink:
    """A stateless lossy link: each message's fate is a seeded hash.

    A drop is decided purely from ``(epoch, sender, edge)``, so the same
    message meets the same fate on either entry point and in any order
    — what a replayed trace of a real fading channel looks like.
    """

    def __init__(
        self,
        loss_rate: float,
        *,
        seed: int = 0,
        edge_class: EdgeClass | None = None,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        self.seed = seed
        self.edge_class = edge_class
        #: Epoch of every message this link actually swallowed.
        self.applications: list[int] = []

    def would_drop(self, epoch: int, sender: int, edge: EdgeClass) -> bool:
        draw = derive_seed(self.seed, "lossy", f"{epoch}", f"{sender}", edge.value)
        return draw / 2**64 < self.loss_rate

    def __call__(self, message: DataMessage, edge: EdgeClass) -> DataMessage | None:
        if self.edge_class is not None and edge is not self.edge_class:
            return message
        if self.would_drop(message.epoch, message.sender, edge):
            self.applications.append(message.epoch)
            return None
        return message

#: Builds a fresh adversary for a freshly-built protocol instance.
AttackFactory = Callable[[SecureAggregationProtocol], Interceptor]


@dataclass
class RunSpec:
    """A complete, reproducible SIES scenario both entry points replay."""

    num_sources: int
    fanout: int = 3
    num_epochs: int = 8
    key_seed: int = 7
    workload_seed: int = 11
    value_range: tuple[int, int] = (0, 900)
    #: Sources failed for the whole run (reported to the querier).
    static_failures: frozenset[int] = field(default_factory=frozenset)
    #: ``source_id -> epochs`` dynamic (per-epoch) reported failures.
    dynamic_failures: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    attack_factory: AttackFactory | None = None

    @property
    def epochs(self) -> range:
        return range(1, self.num_epochs + 1)

    def build_workload(self) -> UniformWorkload:
        low, high = self.value_range
        return UniformWorkload(self.num_sources, low, high, seed=self.workload_seed)

    def reporting(self, epoch: int) -> list[int]:
        """Source ids the querier is told reported at *epoch*."""
        failed = set(self.static_failures)
        failed.update(sid for sid, epochs in self.dynamic_failures.items() if epoch in epochs)
        return [sid for sid in range(self.num_sources) if sid not in failed]


@dataclass
class PathTrace:
    """Everything one entry point produced that the contract compares."""

    metrics: RunMetrics
    #: ``(epoch, sender) -> ciphertext`` for every channel-observed PSR.
    ciphertexts: dict[tuple[int, int], int]
    #: Epochs in which the adversary modified or swallowed a message.
    touched: set[int]

    @property
    def verdicts(self) -> list[tuple[int, str | None]]:
        return [(em.epoch, em.security_failure) for em in self.metrics.epochs]

    @property
    def sums(self) -> list[int | None]:
        return [em.result.value if em.result is not None else None for em in self.metrics.epochs]


def _touched_epochs(attack: Interceptor | None) -> set[int]:
    # A passive eavesdropper records every hop it sees but changes none.
    if attack is None or isinstance(attack, Eavesdropper):
        return set()
    return set(getattr(attack, "applications", ()))


def execute_path(spec: RunSpec, *, batched: bool) -> PathTrace:
    """Build the scenario from scratch and run it through one entry point."""
    protocol = SIESProtocol(spec.num_sources, seed=spec.key_seed)
    tree = build_complete_tree(spec.num_sources, spec.fanout)
    simulator = NetworkSimulator(
        protocol,
        tree,
        spec.build_workload(),
        SimulationConfig(num_epochs=spec.num_epochs, failed_sources=spec.static_failures),
    )
    for source_id, epochs in spec.dynamic_failures.items():
        simulator.fail_source_at(source_id, epochs)
    attack = spec.attack_factory(protocol) if spec.attack_factory is not None else None
    if attack is not None:
        simulator.channel.add_interceptor(attack)
    # The spy sits *after* the adversary, so it records what the
    # receivers actually saw — attack effects included.
    spy = Eavesdropper()
    simulator.channel.add_interceptor(spy)

    if batched:
        metrics = simulator.run()
    else:
        # Each run_epoch starts a fresh traffic ledger; sum them so the
        # two entry points compare counter by counter.
        records, traffic = [], HopLedger()
        for epoch in spec.epochs:
            records.append(simulator.run_epoch(epoch))
            _add_ledger(traffic, simulator.channel.ledger)
        metrics = RunMetrics(
            "network",
            protocol.name,
            spec.num_sources,
            epochs=records,
            traffic=traffic,
            source_ops=simulator.source_ops,
            aggregator_ops=simulator.aggregator_ops,
            querier_ops=simulator.querier_ops,
        )

    ciphertexts = {
        (epoch, sender): psr.ciphertext
        for (epoch, sender, psr) in spy.observations
        if hasattr(psr, "ciphertext")
    }
    return PathTrace(metrics=metrics, ciphertexts=ciphertexts, touched=_touched_epochs(attack))


def _add_ledger(total: HopLedger, ledger: HopLedger) -> None:
    for edge, counters in ledger.by_class.items():
        into = total.edge(edge)
        for name, count in counters.as_dict().items():
            setattr(into, name, getattr(into, name) + count)


def run_both_paths(spec: RunSpec) -> tuple[PathTrace, PathTrace]:
    """``(sequential, batched)`` traces of the same scenario."""
    return execute_path(spec, batched=False), execute_path(spec, batched=True)


def assert_equivalent(sequential: PathTrace, batched: PathTrace, *, context: str = "") -> None:
    """Assert the two entry points produced the same run, bit for bit."""
    label = f" [{context}]" if context else ""

    assert batched.ciphertexts == sequential.ciphertexts, (
        f"channel ciphertexts diverged{label}"
    )
    assert batched.touched == sequential.touched, f"adversary touched other epochs{label}"

    seq_epochs = sequential.metrics.epochs
    bat_epochs = batched.metrics.epochs
    assert [em.epoch for em in seq_epochs] == [em.epoch for em in bat_epochs], (
        f"epoch schedule diverged{label}"
    )
    for seq_em, bat_em in zip(seq_epochs, bat_epochs):
        assert seq_em.security_failure == bat_em.security_failure, (
            f"verdict diverged at epoch {seq_em.epoch}{label}: "
            f"sequential={seq_em.security_failure!r} batched={bat_em.security_failure!r}"
        )
        seq_value = seq_em.result.value if seq_em.result is not None else None
        bat_value = bat_em.result.value if bat_em.result is not None else None
        assert seq_value == bat_value, (
            f"SUM diverged at epoch {seq_em.epoch}{label}: {seq_value} != {bat_value}"
        )
        assert seq_em.sources_reporting == bat_em.sources_reporting, label

    for role in ("source_ops", "aggregator_ops", "querier_ops"):
        seq_counts = getattr(sequential.metrics, role).counts
        bat_counts = getattr(batched.metrics, role).counts
        assert seq_counts == bat_counts, (
            f"{role} diverged{label}: sequential={seq_counts} batched={bat_counts}"
        )

    # Every counter: messages, payload and frame bytes, decode failures.
    seq_traffic = sequential.metrics.traffic.as_dict()
    bat_traffic = batched.metrics.traffic.as_dict()
    assert bat_traffic == seq_traffic, (
        f"traffic ledger diverged{label}: sequential={seq_traffic} batched={bat_traffic}"
    )


def assert_oracle(
    spec: RunSpec, trace: PathTrace, *, context: str = "", touched_rejected: bool = False
) -> None:
    """Assert the run matches the exact values and ledgers *spec* predicts."""
    label = f" [{context}]" if context else ""
    workload = spec.build_workload()
    epochs = trace.metrics.epochs
    assert [em.epoch for em in epochs] == list(spec.epochs), f"epoch schedule{label}"

    reported = 0
    querier_hm256 = 0
    querier_hm1 = 0
    for em in epochs:
        reporting = spec.reporting(em.epoch)
        reported += len(reporting)
        assert em.sources_reporting == len(reporting), f"epoch {em.epoch}{label}"
        accepted = em.security_failure is None and em.result is not None
        if accepted:
            exact = sum(workload(sid, em.epoch) for sid in reporting)
            assert em.result.value == exact, (
                f"epoch {em.epoch} accepted a wrong SUM{label}: {em.result.value} != {exact}"
            )
        if em.epoch not in trace.touched:
            assert accepted, (
                f"untouched epoch {em.epoch} not accepted{label}: {em.security_failure!r}"
            )
        elif touched_rejected:
            assert not accepted, f"touched epoch {em.epoch} accepted{label}"
        if em.security_failure not in ("MessageLost", "NoResult"):
            querier_hm256 += len(reporting) + 1
            querier_hm1 += len(reporting)

    metrics = trace.metrics
    source_ledger = (metrics.source_ops.get("hm256"), metrics.source_ops.get("hm1"))
    assert source_ledger == (2 * reported, reported), (
        f"source ledger (hm256, hm1)={source_ledger}, expected {(2 * reported, reported)}{label}"
    )
    querier_ledger = (metrics.querier_ops.get("hm256"), metrics.querier_ops.get("hm1"))
    assert querier_ledger == (querier_hm256, querier_hm1), (
        f"querier ledger (hm256, hm1)={querier_ledger}, "
        f"expected {(querier_hm256, querier_hm1)}{label}"
    )
    sa_messages = metrics.traffic.messages.get(EdgeClass.SOURCE_TO_AGGREGATOR, 0)
    assert sa_messages == reported, f"S-A messages {sa_messages} != {reported}{label}"


def count_combinations(specs: Iterable[RunSpec]) -> int:
    """Epoch/failure/tamper combinations a spec list exercises.

    Each simulated epoch is one (epoch × failure-set × tamper-state)
    point of the contract; the randomized sweep requires ≥ 200 of them.
    """
    return sum(spec.num_epochs for spec in specs)
