"""Shared measurement machinery for the experiment drivers.

The paper reports *per-party* CPU time (one source's initialization,
one aggregator's merge, one querier evaluation), averaged over epochs.
Running a full 1024-source network per configuration is unnecessary for
those metrics — and intractable for SECOA_S in pure Python — so this
module measures each party directly:

* :func:`measure_source_cost` times ``initialize`` on real source roles;
* :func:`measure_aggregator_cost` times ``merge`` over ``F`` real child
  PSRs (built untimed);
* :func:`measure_querier_cost` times ``evaluate`` on a *final* PSR
  (:func:`measure_queriers_paired` pairs each evaluation with a fresh
  timing of the model's constants).
  For SIES/CMT the final PSR is produced by actually merging all ``N``
  source PSRs; for SECOA_S it is synthesized through the roll/fold
  algebra (provably identical to the network's output, since rolling
  and folding commute — see :mod:`repro.baselines.secoa.seal`), which
  turns an intractable 1024-source epoch into seconds.

Every measurement also returns the primitive-operation ledger, so each
experiment reports modeled time (Section V equations at host constants)
next to measured wall time.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.baselines.secoa.certificates import (
    aggregate_certificates,
    inflation_certificate,
    temporal_seed_bytes,
)
from repro.baselines.secoa.secoa_sum import SECOASumProtocol, SECOASumRecord
from repro.baselines.secoa.sketch import sample_sketch_level
from repro.costmodel.constants import CostConstants
from repro.costmodel.microbench import measure_constants
from repro.datasets.workload import DomainScaledWorkload
from repro.errors import ParameterError
from repro.protocols.base import (
    EvaluationResult,
    OpCounter,
    PartialStateRecord,
    SecureAggregationProtocol,
)
from repro.utils.bytesops import bytes_to_int

__all__ = [
    "PartyMeasurement",
    "measure_source_cost",
    "measure_aggregator_cost",
    "measure_querier_cost",
    "PairedMeasurement",
    "measure_queriers_paired",
    "build_final_psr",
    "paper_workload",
]


@dataclass
class PartyMeasurement:
    """Mean wall time and operation counts for one party's phase."""

    mean_seconds: float
    samples: int
    ops: OpCounter

    def modeled_seconds(self, constants: CostConstants) -> float:
        """Section V model time per call, priced at *constants*."""
        if self.samples == 0:
            return 0.0
        return constants.modeled_seconds(self.ops) / self.samples


def paper_workload(num_sources: int, scale: int, *, seed: int = 0) -> DomainScaledWorkload:
    """The paper's workload at a given domain scale (Table IV)."""
    return DomainScaledWorkload(num_sources, scale=scale, seed=seed)


def measure_source_cost(
    protocol: SecureAggregationProtocol,
    workload: Callable[[int, int], int],
    *,
    epochs: Sequence[int],
    source_ids: Sequence[int] = (0,),
    warmup: bool = False,
) -> PartyMeasurement:
    """Average wall time of one source initialization (Fig. 4 metric).

    With *warmup*, every role runs ``epochs[0]`` once untimed and
    uncounted first, so one-time per-key work stays out of the
    per-epoch figure, as the rest of setup does: a PRF builds its keyed
    HMAC state on its first evaluation (:mod:`repro.crypto.prf`).
    """
    ops = OpCounter()
    roles = [protocol.create_source(source_id, ops=ops) for source_id in source_ids]
    if warmup:
        for role in roles:
            role.initialize(epochs[0], workload(role.source_id, epochs[0]))
        ops.reset()
    total = 0.0
    samples = 0
    for role in roles:
        source_id = role.source_id
        for epoch in epochs:
            value = workload(source_id, epoch)
            start = time.perf_counter()
            role.initialize(epoch, value)
            total += time.perf_counter() - start
            samples += 1
    return PartyMeasurement(mean_seconds=total / samples, samples=samples, ops=ops)


def measure_aggregator_cost(
    protocol: SecureAggregationProtocol,
    workload: Callable[[int, int], int],
    *,
    fanout: int,
    epochs: Sequence[int],
) -> PartyMeasurement:
    """Average wall time of one merge over ``fanout`` children (Fig. 5)."""
    if fanout < 1:
        raise ParameterError(f"fanout must be >= 1, got {fanout}")
    sources = [protocol.create_source(i) for i in range(fanout)]
    ops = OpCounter()
    aggregator = protocol.create_aggregator(ops=ops)
    total = 0.0
    samples = 0
    for epoch in epochs:
        psrs = [s.initialize(epoch, workload(s.source_id, epoch)) for s in sources]
        start = time.perf_counter()
        aggregator.merge(epoch, psrs)
        total += time.perf_counter() - start
        samples += 1
    return PartyMeasurement(mean_seconds=total / samples, samples=samples, ops=ops)


def measure_querier_cost(
    protocol: SecureAggregationProtocol,
    workload: Callable[[int, int], int],
    *,
    epochs: Sequence[int],
    warmup: bool = False,
) -> PartyMeasurement:
    """Average wall time of one evaluation on a valid final PSR (Fig. 6).

    Every final PSR is built before the timed loop, so the querier is
    timed in its steady state, evaluating one epoch after another, with
    no network synthesis run in between.  *warmup* runs one untimed,
    uncounted evaluation of ``epochs[0]`` first (see
    :func:`measure_source_cost`).
    """
    finals = _final_psrs(protocol, workload, epochs)
    ops = OpCounter()
    querier = protocol.create_querier(ops=ops)
    if warmup:
        querier.evaluate(*finals[0])
        ops.reset()
    total = 0.0
    samples = 0
    for epoch, final_psr in finals:
        start = time.perf_counter()
        result = querier.evaluate(epoch, final_psr)
        total += time.perf_counter() - start
        samples += 1
        _check_verified(protocol, result)
    return PartyMeasurement(mean_seconds=total / samples, samples=samples, ops=ops)


@dataclass
class PairedMeasurement:
    """Medians of a querier's wall time, its model and their ratio."""

    median_seconds: float
    model_seconds: float
    model_ratio: float


def measure_queriers_paired(
    parties: Sequence[tuple[
        SecureAggregationProtocol, Callable[[int, int], int], Callable[[CostConstants], float]
    ]],
    *,
    epochs: Sequence[int],
    rounds: int,
) -> list[PairedMeasurement]:
    """Time each ``(protocol, workload, model)`` querier, round by round.

    A model priced from constants timed once and compared with a querier
    timed later compares two CPU states: on a shared host the speed
    drifts by up to 2x over seconds.  Each of *rounds* rounds here times
    the Table II constants afresh (one batch of 20 calls per constant)
    and then one evaluation per party of its next final PSR of *epochs*,
    so every ratio, and every comparison between parties, is taken in
    one window of a few milliseconds.  The results are medians over the
    rounds, which drops the rounds a preemption lands in.  One untimed
    evaluation of ``epochs[0]`` per party runs first.
    """
    setups = []
    for protocol, workload, model in parties:
        finals = _final_psrs(protocol, workload, epochs)
        querier = protocol.create_querier()
        querier.evaluate(*finals[0])
        setups.append((protocol, querier, finals, model, [], [], []))
    for i in range(rounds):
        host = measure_constants(repeat=1, inner_loops=20, fresh=True)
        for protocol, querier, finals, model, seconds, modeled, ratios in setups:
            epoch, final_psr = finals[i % len(finals)]
            start = time.perf_counter()
            result = querier.evaluate(epoch, final_psr)
            seconds.append(time.perf_counter() - start)
            modeled.append(model(host))
            ratios.append(seconds[-1] / modeled[-1])
            _check_verified(protocol, result)
    return [
        PairedMeasurement(
            median_seconds=statistics.median(seconds),
            model_seconds=statistics.median(modeled),
            model_ratio=statistics.median(ratios),
        )
        for *_, seconds, modeled, ratios in setups
    ]


def _final_psrs(
    protocol: SecureAggregationProtocol,
    workload: Callable[[int, int], int],
    epochs: Sequence[int],
) -> list[tuple[int, PartialStateRecord]]:
    return [
        (epoch, build_final_psr(
            protocol, epoch, [workload(i, epoch) for i in range(protocol.num_sources)]
        ))
        for epoch in epochs
    ]


def _check_verified(protocol: SecureAggregationProtocol, result: EvaluationResult) -> None:
    if not result.verified and protocol.provides_integrity:
        raise ParameterError("synthesized final PSR failed verification")


# ----------------------------------------------------------------------
# Final-PSR construction
# ----------------------------------------------------------------------


def build_final_psr(
    protocol: SecureAggregationProtocol, epoch: int, values: Sequence[int]
) -> PartialStateRecord:
    """A final PSR identical to what the network would deliver.

    Generic path: initialize every source and merge once (valid because
    every scheme's merge is associative over arbitrary arity).  SECOA_S
    takes the algebraic fast path below.
    """
    if len(values) != protocol.num_sources:
        raise ParameterError(
            f"need {protocol.num_sources} values, got {len(values)}"
        )
    if isinstance(protocol, SECOASumProtocol):
        return _synthesize_secoa_sum_final(protocol, epoch, values)
    psrs = [
        protocol.create_source(i).initialize(epoch, value) for i, value in enumerate(values)
    ]
    aggregator = protocol.create_aggregator()
    merged = aggregator.merge(epoch, psrs)
    return aggregator.finalize_for_querier(merged)


def _synthesize_secoa_sum_final(
    protocol: SECOASumProtocol, epoch: int, values: Sequence[int]
) -> SECOASumRecord:
    """Build SECOA_S's final PSR without per-source SEAL chains.

    Per sketch ``j`` the network's aggregate SEAL is
    ``E^{x_j}(Π_i sd_{i,j})`` regardless of merge order (roll/fold
    commute), so we fold all seeds first and roll once — ``J·(N−1)``
    multiplications plus ``Σ x_j`` RSA steps instead of ``Σ_i x_{i,j}``
    RSA steps across all sources.
    """
    j_count = protocol.num_sketches
    ctx = protocol.seal_context
    n = ctx.public_key.n

    # Sketch levels exactly as each source role would draw them.
    levels_by_source = [
        [
            sample_sketch_level(
                value,
                strategy=protocol.strategy,
                seed=protocol._sketch_seed,
                labels=(str(i), str(epoch), str(j)),
            )
            for j in range(j_count)
        ]
        for i, value in enumerate(values)
    ]

    levels: list[int] = []
    winners: list[int] = []
    certificates: list[bytes] = []
    seals = []
    for j in range(j_count):
        # Same tie-break as the aggregator: max level, smallest source id.
        winner = max(range(len(values)), key=lambda i: (levels_by_source[i][j], -i))
        level = levels_by_source[winner][j]
        levels.append(level)
        winners.append(winner)
        certificates.append(
            inflation_certificate(protocol.cert_keys[winner], j, level, epoch)
        )
        product = 1
        for i in range(len(values)):
            seed = bytes_to_int(temporal_seed_bytes(protocol.seed_keys[i], j, epoch)) % n
            product = (product * (seed if seed else 1)) % n
        seals.append(ctx.create(product, level))

    return SECOASumRecord(
        epoch=epoch,
        levels=levels,
        winners=winners,
        seals=ctx.fold_by_position(seals),
        seal_bytes=ctx.seal_bytes,
        winner_certificates=None,
        certificate=aggregate_certificates(certificates),
    )
