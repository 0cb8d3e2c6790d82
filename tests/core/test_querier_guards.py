"""Regression tests: the querier must refuse malformed reporting subsets.

An empty subset, a duplicate source id, or an out-of-range id makes the
decryption subtract the wrong pad sum and (at best) reject an honest
result, or silently decrypt garbage.  These are caller errors, not
attacks, so :meth:`SIESQuerier.evaluate` raises a clear
:class:`~repro.errors.ProtocolError` before touching any ciphertext.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import SIESProtocol
from repro.errors import ProtocolError

N = 6
EPOCH = 1


@pytest.fixture(scope="module")
def deployment():
    protocol = SIESProtocol(N, seed=71)
    sources = [protocol.create_source(i) for i in range(N)]
    values = [10 * (i + 1) for i in range(N)]
    psrs = [s.initialize(EPOCH, v) for s, v in zip(sources, values)]
    aggregator = protocol.create_aggregator()
    return protocol, psrs, values, aggregator


def _subset_psr(deployment, subset):
    protocol, psrs, values, aggregator = deployment
    return aggregator.merge(EPOCH, [psrs[i] for i in subset])


def test_empty_reporting_subset_rejected(deployment) -> None:
    protocol, psrs, _, aggregator = deployment
    querier = protocol.create_querier()
    final = aggregator.merge(EPOCH, psrs)
    with pytest.raises(ProtocolError, match="no reporting sources"):
        querier.evaluate(EPOCH, final, reporting_sources=[])


def test_duplicate_source_ids_rejected(deployment) -> None:
    protocol, _, _, _ = deployment
    querier = protocol.create_querier()
    final = _subset_psr(deployment, [0, 2, 3])
    with pytest.raises(ProtocolError, match="duplicate reporting source id 2"):
        querier.evaluate(EPOCH, final, reporting_sources=[0, 2, 2, 3])


@pytest.mark.parametrize("bad_id", [-1, N, N + 5])
def test_out_of_range_source_ids_rejected(deployment, bad_id: int) -> None:
    protocol, _, _, _ = deployment
    querier = protocol.create_querier()
    final = _subset_psr(deployment, [0, 1])
    with pytest.raises(ProtocolError, match="outside"):
        querier.evaluate(EPOCH, final, reporting_sources=[0, 1, bad_id])


def test_valid_subset_still_evaluates(deployment) -> None:
    """The guards must not break legitimate failed-subset evaluation."""
    protocol, _, values, _ = deployment
    querier = protocol.create_querier()
    subset = [0, 3, 5]
    final = _subset_psr(deployment, subset)
    result = querier.evaluate(EPOCH, final, reporting_sources=subset)
    assert result.value == sum(values[i] for i in subset)
    assert result.verified

