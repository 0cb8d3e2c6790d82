"""Recovery properties: the accepted SUM is exact over exactly the survivors.

The paper's failure handling (Section IV-B) lets the querier evaluate
over any reported subset ``R``; the runtime's job is to compute ``R``
correctly under loss.  These properties pin the contract for both SIES
and the CMT baseline across seeded loss rates and random topologies:

* the accepted SUM always equals the plaintext sum over *exactly* the
  surviving reporting subset — never a stale or padded subset;
* SIES verification never rejects a run where recovery converged
  (no spurious :class:`~repro.errors.IntegrityError` from loss alone);
* unconverged epochs are classified as transport outcomes
  (``MessageLost``/``NoResult``), never as security failures.
"""

from __future__ import annotations

import pytest

from repro.baselines.cmt import CMTProtocol
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.errors import SimulationError
from repro.network.topology import build_random_tree
from repro.runtime import (
    EpochRecovery,
    FaultPlan,
    RuntimeConfig,
    RuntimeSimulator,
)

LOSS_RATES = [0.0, 0.05, 0.2, 0.5]
PROTOCOLS = ["sies", "cmt"]


def make_protocol(name: str, n: int, seed: int):
    if name == "sies":
        return SIESProtocol(num_sources=n, seed=seed)
    return CMTProtocol(num_sources=n, seed=seed)


def run_sweep(protocol_name: str, loss_rate: float, *, n: int, seed: int, epochs: int = 6):
    protocol = make_protocol(protocol_name, n, seed)
    tree = build_random_tree(n, max_fanout=3, seed=seed)
    workload = UniformWorkload(n, 0, 200, seed=seed)
    config = RuntimeConfig(
        num_epochs=epochs,
        plan=FaultPlan.uniform_loss(loss_rate),
        seed=seed,
    )
    return RuntimeSimulator(protocol, tree, workload, config).run(), workload


# ----------------------------------------------------------------------
# EpochRecovery unit properties
# ----------------------------------------------------------------------


def test_survivors_must_be_attempted() -> None:
    with pytest.raises(SimulationError):
        EpochRecovery(
            epoch=1,
            attempted=frozenset({0, 1}),
            survivors=frozenset({0, 2}),  # 2 never attempted
            pre_failed=frozenset(),
            converged=True,
        )


def test_reporting_subset_is_none_only_when_everyone_survived() -> None:
    full = EpochRecovery(
        epoch=1,
        attempted=frozenset(range(4)),
        survivors=frozenset(range(4)),
        pre_failed=frozenset(),
        converged=True,
    )
    assert full.reporting_subset(4) is None  # the common case stays cheap
    assert full.complete and full.lost == frozenset()

    partial = EpochRecovery(
        epoch=1,
        attempted=frozenset(range(4)),
        survivors=frozenset({0, 3}),
        pre_failed=frozenset(),
        converged=True,
    )
    assert partial.reporting_subset(4) == [0, 3]
    assert partial.lost == frozenset({1, 2})
    assert not partial.complete


def test_pre_failed_sources_force_an_explicit_subset() -> None:
    # All attempts survived, but source 2 never attempted: the querier
    # must still be told the subset, or verification would expect 2.
    recovery = EpochRecovery(
        epoch=1,
        attempted=frozenset({0, 1, 3}),
        survivors=frozenset({0, 1, 3}),
        pre_failed=frozenset({2}),
        converged=True,
    )
    assert recovery.reporting_subset(4) == [0, 1, 3]


def test_unconverged_epoch_reports_empty_survivors() -> None:
    recovery = EpochRecovery(
        epoch=1,
        attempted=frozenset(range(4)),
        survivors=frozenset(),
        pre_failed=frozenset(),
        converged=False,
    )
    assert recovery.lost == frozenset(range(4))
    assert recovery.reporting_subset(4) == []


# ----------------------------------------------------------------------
# The fault sweep (ISSUE satellite): loss ∈ {0, 0.05, 0.2, 0.5},
# random trees, SIES and CMT
# ----------------------------------------------------------------------


@pytest.mark.runtime
@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_accepted_sum_is_exact_over_survivors(protocol_name: str, loss_rate: float) -> None:
    for seed in (1, 17):  # two independent random trees per cell
        metrics, workload = run_sweep(protocol_name, loss_rate, n=12, seed=seed)
        for em in metrics.epochs:
            if not em.recovery.converged:
                # Transport failure, never a security verdict.
                assert em.security_failure in ("MessageLost", "NoResult")
                continue
            assert em.result is not None, (
                f"{protocol_name} rejected converged epoch {em.epoch} "
                f"at loss {loss_rate}: {em.security_failure}"
            )
            expected = sum(
                workload(sid, em.epoch) for sid in sorted(em.recovery.survivors)
            )
            assert em.result.value == expected, (
                f"{protocol_name} epoch {em.epoch}: got {em.result.value}, "
                f"plaintext sum over survivors {sorted(em.recovery.survivors)} "
                f"is {expected}"
            )


@pytest.mark.runtime
@pytest.mark.parametrize("loss_rate", LOSS_RATES)
def test_sies_never_rejects_a_converged_run(loss_rate: float) -> None:
    metrics, _ = run_sweep("sies", loss_rate, n=12, seed=5, epochs=8)
    for em in metrics.epochs:
        if em.recovery.converged:
            assert em.security_failure is None
            assert em.result is not None and em.result.verified


@pytest.mark.runtime
@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_zero_loss_sweep_is_complete(protocol_name: str) -> None:
    metrics, _ = run_sweep(protocol_name, 0.0, n=12, seed=9)
    assert metrics.delivery_rate() == 1.0
    assert metrics.traffic.total("retransmissions") == 0
    for em in metrics.epochs:
        assert em.recovery.complete


@pytest.mark.runtime
def test_cmt_recovers_value_but_never_verifies() -> None:
    metrics, _ = run_sweep("cmt", 0.2, n=12, seed=3)
    for em in metrics.epochs:
        if em.recovery.converged:
            assert em.result is not None
            assert not em.result.verified  # CMT has no integrity, by design


@pytest.mark.runtime
def test_sweep_is_seed_deterministic() -> None:
    first, _ = run_sweep("sies", 0.5, n=12, seed=21)
    second, _ = run_sweep("sies", 0.5, n=12, seed=21)
    assert first.ledger() == second.ledger()
