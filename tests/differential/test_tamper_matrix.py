"""Tamper matrix: adversary × entry point × failure mode.

Every channel adversary from :mod:`repro.attacks.adversary` is mounted
against both simulator entry points — one ``run()`` over the range
("batched") and one ``run_epoch()`` per epoch ("sequential") — under
both the all-report regime and a failed-subset regime (static plus
dynamic reported failures).  The contract has two layers:

* **no verdict divergence** — for every cell of the matrix, both entry
  points agree epoch by epoch, and the run matches the exact oracle
  (:func:`~tests.differential.harness.assert_oracle`);
* **detection** — for the actively tampering adversaries, every epoch
  whose records the attack actually touched is rejected with
  :class:`~repro.errors.VerificationFailure` (what Theorems 2/4
  promise), and no untouched epoch is ever rejected (no false
  positives; the passive eavesdropper touches none).
"""

from __future__ import annotations

import zlib

import pytest

from repro.attacks.adversary import (
    AdditiveTamperAttack,
    BitFlipAttack,
    DropAttack,
    Eavesdropper,
    ReplayAttack,
)
from repro.network.channel import EdgeClass

from tests.differential.harness import (
    RunSpec,
    assert_equivalent,
    assert_oracle,
    execute_path,
    run_both_paths,
)

pytestmark = pytest.mark.differential

NUM_SOURCES = 12
NUM_EPOCHS = 6

# name -> (factory, always_detected_when_applied)
SCENARIOS = {
    "additive-aq": (lambda protocol: AdditiveTamperAttack(1 << 33, protocol.p), True),
    "additive-sa": (
        lambda protocol: AdditiveTamperAttack(
            (1 << 21) + 5, protocol.p, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR
        ),
        True,
    ),
    "bitflip-aq": (lambda protocol: BitFlipAttack(protocol.p), True),
    "replay": (lambda protocol: ReplayAttack(capture_epoch=2), True),
    # Dropping a source that the querier still believes reported is an
    # incomplete aggregate — rejected by the share check.
    "drop-source": (lambda protocol: DropAttack(sender_ids=frozenset({4})), True),
    # A passive eavesdropper must never trip verification.
    "eavesdrop": (lambda protocol: Eavesdropper(), False),
}

FAILURE_MODES = {
    "all-report": dict(static_failures=frozenset(), dynamic_failures={}),
    "failed-subset": dict(
        static_failures=frozenset({1}),
        dynamic_failures={7: (2, 4), 9: (3,)},
    ),
}


def _spec(scenario: str, failure_mode: str) -> RunSpec:
    factory, _ = SCENARIOS[scenario]
    return RunSpec(
        num_sources=NUM_SOURCES,
        fanout=3,
        num_epochs=NUM_EPOCHS,
        key_seed=zlib.crc32(f"{scenario}/{failure_mode}".encode()) % 100_000,
        workload_seed=42,
        attack_factory=factory,
        **FAILURE_MODES[failure_mode],
    )


@pytest.mark.parametrize("failure_mode", sorted(FAILURE_MODES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_no_verdict_divergence(scenario: str, failure_mode: str) -> None:
    """Both entry points agree bit by bit, and the run matches the oracle."""
    spec = _spec(scenario, failure_mode)
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context=f"{scenario}/{failure_mode}")
    assert_oracle(spec, batched, context=f"{scenario}/{failure_mode}", touched_rejected=True)


@pytest.mark.parametrize("failure_mode", sorted(FAILURE_MODES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("batched", [False, True], ids=["sequential", "batched"])
def test_detection_contract(scenario: str, failure_mode: str, batched: bool) -> None:
    """Tampered epochs are rejected; untouched epochs are accepted."""
    _, always_detected = SCENARIOS[scenario]
    trace = execute_path(_spec(scenario, failure_mode), batched=batched)
    path = "batched" if batched else "sequential"

    for epoch, failure in trace.verdicts:
        if epoch in trace.touched and always_detected:
            assert failure == "VerificationFailure", (
                f"{scenario}/{failure_mode}: attacked epoch {epoch} accepted ({path} path)"
            )
        if epoch not in trace.touched:
            assert failure is None, (
                f"{scenario}/{failure_mode}: clean epoch {epoch} rejected with {failure} "
                f"({path} path) — false positive"
            )


def test_matrix_includes_genuinely_attacked_epochs() -> None:
    """The matrix is not vacuous: tampering scenarios really fire."""
    for scenario, (_, always_detected) in SCENARIOS.items():
        if not always_detected:
            continue
        trace = execute_path(_spec(scenario, "all-report"), batched=True)
        rejected = [e for e, failure in trace.verdicts if failure is not None]
        assert rejected, f"{scenario} never produced a rejected epoch"
        assert trace.touched, f"{scenario} never touched an epoch"
