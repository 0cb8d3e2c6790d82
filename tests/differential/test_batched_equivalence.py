"""Randomized differential sweep: ``run()`` ≡ ``run_epoch()`` ≡ exact oracle.

A seeded generator draws scenarios across network size, fanout, static
and dynamic source failures, and every active channel adversary, then
replays each through both simulator entry points (one ``run()`` over
the range, "batched"; one ``run_epoch()`` per epoch, "sequential").
Both must agree bit for bit, and the run must match the oracle: exact
SUMs on every accepted epoch, every untouched epoch accepted, every
tampered epoch rejected, and the closed-form op ledgers and S-A message
counts (see :mod:`tests.differential.harness`).

The sweep covers ≥ 200 epoch/failure/tamper combinations (asserted
explicitly).  The key-schedule cache tests pin the amortization claim:
a warm cache performs strictly fewer HMAC evaluations per epoch than
the plain querier.
"""

from __future__ import annotations

import random

import pytest

from repro.attacks.adversary import (
    AdditiveTamperAttack,
    BitFlipAttack,
    DropAttack,
    ReplayAttack,
)
from repro.core.protocol import SIESProtocol
from repro.experiments.common import build_final_psr
from repro.network.channel import EdgeClass
from repro.protocols.base import OpCounter

from tests.differential.harness import (
    RunSpec,
    assert_equivalent,
    assert_oracle,
    count_combinations,
    execute_path,
    run_both_paths,
)

pytestmark = pytest.mark.differential

MINIMUM_COMBINATIONS = 200


def _attack_factory(rng: random.Random):
    """Draw one adversary constructor (or None for a clean run)."""
    kind = rng.choice(["none", "additive_aq", "additive_sa", "bitflip", "replay", "drop"])
    if kind == "none":
        return None, kind
    if kind == "additive_aq":
        delta = rng.randrange(1, 1 << 40)
        return (lambda protocol: AdditiveTamperAttack(delta, protocol.p)), kind
    if kind == "additive_sa":
        delta = rng.randrange(1, 1 << 40)
        return (
            lambda protocol: AdditiveTamperAttack(
                delta, protocol.p, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR
            )
        ), kind
    if kind == "bitflip":
        return (lambda protocol: BitFlipAttack(protocol.p)), kind
    if kind == "replay":
        capture = rng.randrange(1, 4)
        return (lambda protocol: ReplayAttack(capture_epoch=capture)), kind
    sender = rng.randrange(0, 4)
    return (lambda protocol: DropAttack(sender_ids=frozenset({sender}))), kind


def _random_specs(seed: int, count: int) -> list[tuple[str, RunSpec]]:
    rng = random.Random(seed)
    specs: list[tuple[str, RunSpec]] = []
    for index in range(count):
        num_sources = rng.randrange(4, 25)
        num_epochs = rng.randrange(6, 14)
        static = frozenset(
            rng.sample(range(num_sources), rng.randrange(0, max(1, num_sources // 4)))
        )
        dynamic: dict[int, tuple[int, ...]] = {}
        for _ in range(rng.randrange(0, 3)):
            sid = rng.randrange(num_sources)
            epochs = tuple(
                sorted(rng.sample(range(1, num_epochs + 1), rng.randrange(1, 1 + num_epochs // 2)))
            )
            dynamic[sid] = epochs
        attack_factory, attack_name = _attack_factory(rng)
        # The ``window`` draw (only shown in the id) and the two draws
        # after the spec select nothing; dropping them would reshuffle
        # every later scenario of the seeded stream.
        window = rng.choice([1, 2, 3, 4, 8, 16])
        spec = RunSpec(
            num_sources=num_sources,
            fanout=rng.choice([2, 3, 4]),
            num_epochs=num_epochs,
            key_seed=rng.randrange(1, 10_000),
            workload_seed=rng.randrange(1, 10_000),
            value_range=(0, rng.choice([50, 500, 5000])),
            static_failures=static,
            dynamic_failures=dynamic,
            attack_factory=attack_factory,
        )
        rng.choice([None, None, 2, 4])
        rng.choice([None, None, max(1, window // 2)])
        specs.append((f"{index:02d}-{attack_name}-n{num_sources}-w{window}", spec))
    return specs


SPECS = _random_specs(seed=20110411, count=24)


def test_sweep_covers_required_combinations() -> None:
    assert count_combinations(spec for _, spec in SPECS) >= MINIMUM_COMBINATIONS


@pytest.mark.parametrize(("label", "spec"), SPECS, ids=[label for label, _ in SPECS])
def test_batched_equals_sequential(label: str, spec: RunSpec) -> None:
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context=label)
    # Every drawn adversary is active, so a touched epoch is never accepted.
    assert_oracle(spec, batched, context=label, touched_rejected=True)


def test_attacked_sweep_actually_detects_something() -> None:
    """Guard against a vacuous sweep: the drawn scenarios must include
    accepted epochs (some over a failed subset), querier-rejected
    epochs, and epochs the adversary touched."""
    verdicts = set()
    subset_accepted = False
    touched = 0
    for _, spec in SPECS:
        trace = execute_path(spec, batched=True)
        touched += len(trace.touched)
        for em in trace.metrics.epochs:
            verdicts.add(em.security_failure)
            if em.security_failure is None and len(spec.reporting(em.epoch)) < spec.num_sources:
                subset_accepted = True
    assert None in verdicts, "no epoch was ever accepted"
    assert "VerificationFailure" in verdicts, "no epoch was ever rejected"
    assert subset_accepted, "no failed-subset epoch was ever accepted"
    assert touched, "no adversary ever touched an epoch"


# ----------------------------------------------------------------------
# The key-schedule cache's amortization claim
# ----------------------------------------------------------------------

EPOCHS = list(range(1, 9))
N = 16


def _finals(protocol: SIESProtocol) -> dict[int, object]:
    rng = random.Random(99)
    return {
        epoch: build_final_psr(protocol, epoch, [rng.randrange(1000) for _ in range(N)])
        for epoch in EPOCHS
    }


def test_warm_cache_strictly_fewer_hmacs_per_epoch() -> None:
    protocol = SIESProtocol(N, seed=31)
    finals = _finals(protocol)

    # Sequential reference: every epoch pays N+1 HM256 + N HM1.
    seq_ops = OpCounter()
    seq_querier = protocol.create_querier(ops=seq_ops)
    for epoch in EPOCHS:
        seq_querier.evaluate(epoch, finals[epoch])
    seq_hm256_per_epoch = seq_ops.get("hm256") / len(EPOCHS)
    seq_hm1_per_epoch = seq_ops.get("hm1") / len(EPOCHS)
    assert seq_hm256_per_epoch == N + 1
    assert seq_hm1_per_epoch == N

    # Warm cache: prefetch pays the schedule once, evaluation pays zero.
    warm_ops = OpCounter()
    eval_ops = OpCounter()
    cache = protocol.create_key_cache(capacity=len(EPOCHS))
    cached_querier = protocol.create_querier(ops=eval_ops, key_cache=cache)
    cache.prefetch(EPOCHS, ops=warm_ops)
    assert warm_ops.get("hm256") == len(EPOCHS) * (N + 1)
    assert warm_ops.get("hm1") == len(EPOCHS) * N

    results = [cached_querier.evaluate(epoch, finals[epoch]) for epoch in EPOCHS]
    assert [result.value for result in results] == [
        seq_querier.evaluate(epoch, finals[epoch]).value for epoch in EPOCHS
    ]
    # Strictly fewer HMACs per epoch at evaluation time: zero vs 2N+1.
    assert eval_ops.get("hm256") == 0 < seq_hm256_per_epoch
    assert eval_ops.get("hm1") == 0 < seq_hm1_per_epoch


def test_cache_amortizes_repeated_windows() -> None:
    """Two query passes over the same window: the cached querier pays the
    key schedule once in total, the sequential querier pays it twice."""
    protocol = SIESProtocol(N, seed=32)
    finals = _finals(protocol)

    seq_ops = OpCounter()
    seq_querier = protocol.create_querier(ops=seq_ops)
    for _ in range(2):
        for epoch in EPOCHS:
            seq_querier.evaluate(epoch, finals[epoch])

    cached_ops = OpCounter()
    cache = protocol.create_key_cache(capacity=len(EPOCHS))
    cached_querier = protocol.create_querier(ops=cached_ops, key_cache=cache)
    for _ in range(2):
        for epoch in EPOCHS:
            assert cached_querier.evaluate(epoch, finals[epoch]).verified

    assert cached_ops.get("hm256") == seq_ops.get("hm256") // 2
    assert cached_ops.get("hm1") == seq_ops.get("hm1") // 2
    assert cache.hits > 0 and cache.evictions == 0
