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
explicitly).
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
from repro.network.channel import EdgeClass

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

