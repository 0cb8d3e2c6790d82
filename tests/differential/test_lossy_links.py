"""Both entry points and the oracle under packet loss.

Unreported drops are where a run could silently go wrong: a subtree
vanishing must reject the epoch (the querier believes all sources
reported, so a missing contribution fails the share check), a final-hop
loss must classify as ``MessageLost``, and every epoch the link did not
touch must still be accepted with its exact SUM.  ``run()`` ("batched")
and ``run_epoch()`` ("sequential") must agree on all of it.
:class:`~tests.differential.harness.LossyLink` makes the channel's fate
a pure function of ``(epoch, sender, edge)``, which keeps both entry
points on the same loss realization.
"""

from __future__ import annotations

import pytest

from repro.network.channel import EdgeClass

from tests.differential.harness import (
    LossyLink,
    RunSpec,
    assert_equivalent,
    assert_oracle,
    run_both_paths,
)

pytestmark = pytest.mark.differential


@pytest.mark.parametrize("loss_rate", [0.1, 0.3, 0.6])
@pytest.mark.parametrize(
    "edge_class",
    [None, EdgeClass.SOURCE_TO_AGGREGATOR, EdgeClass.AGGREGATOR_TO_QUERIER],
    ids=["all-edges", "S-A", "A-Q"],
)
def test_lossy_parity(loss_rate: float, edge_class: EdgeClass | None) -> None:
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=10,
        attack_factory=lambda _p: LossyLink(
            loss_rate, seed=int(loss_rate * 100), edge_class=edge_class
        ),
    )
    context = f"loss={loss_rate} edge={edge_class}"
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context=context)
    assert_oracle(spec, batched, context=context, touched_rejected=True)
    assert batched.touched, f"link never dropped anything [{context}]"


def test_final_hop_loss_is_message_lost_on_both_paths() -> None:
    spec = RunSpec(
        num_sources=9,
        fanout=3,
        num_epochs=8,
        attack_factory=lambda _p: LossyLink(
            0.5, seed=9, edge_class=EdgeClass.AGGREGATOR_TO_QUERIER
        ),
    )
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context="final-hop loss")
    assert_oracle(spec, batched, context="final-hop loss", touched_rejected=True)
    failures = {failure for _, failure in sequential.verdicts if failure}
    # With 50% A-Q loss over 8 epochs, some epochs must be lost — and
    # every lost epoch must carry the distinct MessageLost classification.
    assert failures == {"MessageLost"}


def test_source_loss_detected_identically() -> None:
    """Missing subtrees (querier told everyone reported) reject on both paths."""
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=8,
        attack_factory=lambda _p: LossyLink(
            0.35, seed=3, edge_class=EdgeClass.SOURCE_TO_AGGREGATOR
        ),
    )
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context="source loss")
    assert_oracle(spec, batched, context="source loss", touched_rejected=True)
    failures = {failure for _, failure in sequential.verdicts if failure}
    assert "VerificationFailure" in failures


def test_loss_with_dynamic_failures_parity() -> None:
    """Reported failures and unreported loss interact identically."""
    spec = RunSpec(
        num_sources=12,
        fanout=3,
        num_epochs=8,
        static_failures=frozenset({2}),
        dynamic_failures={5: (2, 3), 7: (4,)},
        attack_factory=lambda _p: LossyLink(0.2, seed=17),
    )
    sequential, batched = run_both_paths(spec)
    assert_equivalent(sequential, batched, context="loss+failures")
    assert_oracle(spec, batched, context="loss+failures", touched_rejected=True)
