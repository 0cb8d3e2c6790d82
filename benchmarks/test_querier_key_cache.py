"""Querier key-schedule cache: cold vs warm evaluation of an epoch window.

Isolates the :class:`~repro.crypto.keycache.KeyScheduleCache` lever:
the same window of final PSRs is evaluated through
:meth:`~repro.core.querier.SIESQuerier.evaluate`, once by a querier
that derives every key schedule itself (``N+1`` HM256 + ``N`` HM1 per
epoch) and once by a querier whose cache was prefetched outside the
timed region (zero HMAC work at evaluation time).

Run with::

    PYTHONPATH=src pytest benchmarks/test_querier_key_cache.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.experiments.common import build_final_psr

N = 256
EPOCHS = range(1, 17)
SEED = 2011


def _window(protocol: SIESProtocol) -> dict[int, object]:
    workload = DomainScaledWorkload(N, scale=100, seed=SEED)
    return {
        epoch: build_final_psr(protocol, epoch, [workload(i, epoch) for i in range(N)])
        for epoch in EPOCHS
    }


def _evaluate_window(querier, finals: dict[int, object]) -> list:
    return [querier.evaluate(epoch, finals[epoch]) for epoch in EPOCHS]


@pytest.mark.benchmark(group="querier-key-cache")
def test_querier_cold(benchmark) -> None:
    protocol = SIESProtocol(N, seed=SEED)
    finals = _window(protocol)
    querier = protocol.create_querier()
    results = benchmark.pedantic(
        _evaluate_window, args=(querier, finals), rounds=3, iterations=1
    )
    assert all(result.verified for result in results)


@pytest.mark.benchmark(group="querier-key-cache")
def test_querier_warm_cache(benchmark) -> None:
    protocol = SIESProtocol(N, seed=SEED)
    finals = _window(protocol)
    cache = protocol.create_key_cache(capacity=len(EPOCHS))
    querier = protocol.create_querier(key_cache=cache)
    cache.prefetch(EPOCHS)  # amortized outside the timed region
    results = benchmark.pedantic(
        _evaluate_window, args=(querier, finals), rounds=3, iterations=1
    )
    assert all(result.verified for result in results)
