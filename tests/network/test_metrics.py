"""The run record on the analytic simulator: per-epoch records, per-run views."""

from __future__ import annotations

from repro.protocols.base import EvaluationResult
from repro.runtime.metrics import EpochRecord, RunMetrics
from repro.runtime.recovery import EpochRecovery


def _epoch(epoch: int, *, sources: int = 4, value: int = 10,
           verified: bool = True, failure: str | None = None) -> EpochRecord:
    attempted = frozenset(range(sources))
    recovery = EpochRecovery(
        epoch=epoch, attempted=attempted, survivors=attempted,
        pre_failed=frozenset(), converged=True,
    )
    record = EpochRecord(epoch, recovery, security_failure=failure)
    if failure is None:
        record.result = EvaluationResult(value=value, epoch=epoch, verified=verified, exact=True)
    return record


def test_run_metrics_means_over_epochs() -> None:
    run = RunMetrics("network", "sies", 4, epochs=[_epoch(1), _epoch(2, sources=3)])
    assert run.num_epochs == 2
    assert [e.sources_reporting for e in run.epochs] == [4, 3]
    assert run.acceptance_rate() == 1.0
    assert run.delivery_rate() == 1.0
    assert run.recovery_summary()["epochs_complete"] == 2
    assert run.all_verified()
    assert [r.value for r in run.results()] == [10, 10]
    assert run.security_failures() == []


def test_run_metrics_with_failures() -> None:
    run = RunMetrics(
        "network", "sies", 4, epochs=[_epoch(1), _epoch(2, failure="VerificationFailure")]
    )
    assert run.all_verified()  # the rejected epoch has no result to check
    assert run.security_failures() == [(2, "VerificationFailure")]
    assert len(run.results()) == 1
    assert run.acceptance_rate() == 0.5


def test_run_metrics_unverified_results() -> None:
    run = RunMetrics("network", "cmt", 4, epochs=[_epoch(1, verified=False)])
    assert not run.all_verified()


def test_empty_run_metrics() -> None:
    run = RunMetrics("network", "sies", 4)
    assert run.num_epochs == 0
    assert run.acceptance_rate() == 1.0
    assert run.all_verified()  # vacuously


def test_epoch_entries_are_json_serializable() -> None:
    import json

    from repro.core.protocol import SIESProtocol
    from repro.datasets.workload import UniformWorkload
    from repro.network.simulator import NetworkSimulator, SimulationConfig
    from repro.network.topology import build_complete_tree

    workload = UniformWorkload(8, 1, 9, seed=1)
    metrics = NetworkSimulator(
        SIESProtocol(8, seed=2),
        build_complete_tree(8, 4),
        workload,
        SimulationConfig(num_epochs=2),
    ).run()
    restored = json.loads(json.dumps(metrics.epoch_entries()))  # must not raise
    assert [entry["epoch"] for entry in restored] == [1, 2]
    assert restored[0]["verified"] is True
    assert restored[0]["survivors"] == list(range(8))
    assert restored[0]["completion_latency"] == 0.0
    # Big-integer SUMs are stringified so they survive JSON losslessly.
    expected = sum(workload(s, 1) for s in range(8))
    assert restored[0]["value"] == str(expected)
    big = RunMetrics("network", "sies", 4, epochs=[_epoch(3, value=2**200)])
    assert json.loads(json.dumps(big.epoch_entries()))[0]["value"] == str(2**200)
