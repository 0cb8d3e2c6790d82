"""Per-party measurement helpers and final-PSR synthesis."""

from __future__ import annotations

import pytest

from repro.baselines.cmt import CMTProtocol
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.costmodel.constants import PAPER_CONSTANTS
from repro.datasets.workload import UniformWorkload
from repro.errors import ParameterError
from repro.experiments.common import (
    build_final_psr,
    measure_aggregator_cost,
    measure_querier_cost,
    measure_queriers_paired,
    measure_source_cost,
    measure_sources_paired,
    paper_workload,
)

N = 8
WORKLOAD = UniformWorkload(N, 10, 100, seed=41)


def test_measure_source_cost_counts_samples() -> None:
    protocol = SIESProtocol(N, seed=1)
    pm = measure_source_cost(protocol, WORKLOAD, epochs=[1, 2, 3], source_ids=(0, 1))
    assert pm.samples == 6
    assert pm.mean_seconds > 0
    assert pm.ops.get("hm256") == 12  # 2 per call
    # modeled time prices the per-call average
    assert pm.modeled_seconds(PAPER_CONSTANTS) == pytest.approx(
        PAPER_CONSTANTS.modeled_seconds(pm.ops) / 6
    )


def test_measure_aggregator_cost_ops() -> None:
    protocol = SIESProtocol(N, seed=2)
    pm = measure_aggregator_cost(protocol, WORKLOAD, fanout=4, epochs=[1, 2])
    assert pm.samples == 2
    assert pm.ops.get("add32") == 2 * 3  # (F-1) per merge


def test_measure_querier_cost_verifies(small_tree=None) -> None:
    protocol = SIESProtocol(N, seed=3)
    pm = measure_querier_cost(protocol, WORKLOAD, epochs=[1, 2])
    assert pm.samples == 2
    assert pm.ops.get("inv32") == 2


def test_queriers_paired_price_each_round_afresh() -> None:
    """Each round divides one evaluation per party by its model at fresh constants."""
    calls = []

    def model(host):
        calls.append(host)
        return 1.0

    sies, cmt = measure_queriers_paired(
        [(SIESProtocol(N, seed=3), WORKLOAD, model),
         (CMTProtocol(N, seed=3), WORKLOAD, lambda host: 1e-12)],
        epochs=[1, 2], rounds=3,
    )
    assert len(calls) == 3 and len({id(c) for c in calls}) == 3
    # a model of one second per evaluation: the ratio is the time itself
    assert sies.model_seconds == 1.0
    assert sies.model_ratio == pytest.approx(sies.median_seconds)
    assert 0 < sies.median_seconds < 1.0
    assert cmt.model_ratio > 1.0


def test_sources_paired_time_every_party_in_every_round(monkeypatch) -> None:
    """One initialize per party per round, cycling the (source, epoch) pairs."""
    seen: list[tuple[str, int, int]] = []
    protocols = [SIESProtocol(N, seed=3), CMTProtocol(N, seed=3)]
    for protocol in protocols:
        real = protocol.create_source

        def create(sid, *, real=real, name=protocol.name, **kwargs):
            role = real(sid, **kwargs)
            initialize = role.initialize

            def recorded(epoch, value):
                seen.append((name, sid, epoch))
                return initialize(epoch, value)

            role.initialize = recorded
            return role

        monkeypatch.setattr(protocol, "create_source", create)
    sies, cmt = measure_sources_paired(
        [(protocol, WORKLOAD) for protocol in protocols],
        epochs=[1, 2], source_ids=(0, 1), rounds=5,
    )
    assert 0 < sies < 1.0 and 0 < cmt < 1.0
    warmups = [("sies", 0, 1), ("sies", 1, 1), ("cmt", 0, 1), ("cmt", 1, 1)]
    pairs = [(0, 1), (0, 2), (1, 1), (1, 2), (0, 1)]
    assert seen == warmups + [(name, *pair) for pair in pairs for name in ("sies", "cmt")]


def test_build_final_psr_generic_path_matches_direct_sum() -> None:
    protocol = CMTProtocol(N, seed=4)
    values = [WORKLOAD(i, 1) for i in range(N)]
    final = build_final_psr(protocol, 1, values)
    result = protocol.create_querier().evaluate(1, final)
    assert result.value == sum(values)


def test_build_final_psr_validates_length() -> None:
    with pytest.raises(ParameterError):
        build_final_psr(SIESProtocol(N, seed=5), 1, [1, 2])


def test_secoa_synthesis_verifies_and_estimates() -> None:
    protocol = SECOASumProtocol(N, num_sketches=5, rsa_bits=512, seed=6)
    values = [WORKLOAD(i, 2) for i in range(N)]
    final = build_final_psr(protocol, 2, values)
    result = protocol.create_querier().evaluate(2, final)
    assert result.verified
    assert result.extras["num_seals_collected"] == len(final.seals)


def test_paper_workload_factory() -> None:
    workload = paper_workload(4, 100, seed=7)
    assert workload.domain == (1800, 5000)
    assert all(1800 <= workload(s, 1) <= 5000 for s in range(4))


def test_warmup_keeps_samples_and_ledgers_per_timed_call() -> None:
    """The untimed warm-up call is neither sampled nor charged.

    Only the querier takes a warm-up here; the sources' warm-up is
    :func:`measure_sources_paired`'s (see the test above), and
    :func:`measure_source_cost` samples and charges every call it makes:
    Eq. 3 per initialization.
    """
    protocol = SIESProtocol(N, seed=5)
    source = measure_source_cost(protocol, WORKLOAD, epochs=[1, 2], source_ids=(0, 1))
    assert source.samples == 4
    assert source.ops.counts == {"hm256": 8, "hm1": 4, "mul32": 4, "add32": 4}
    querier = measure_querier_cost(protocol, WORKLOAD, epochs=[1, 2], warmup=True)
    assert querier.samples == 2
    assert querier.ops.get("inv32") == 2
    assert querier.ops.get("hm256") == 2 * (N + 1)
