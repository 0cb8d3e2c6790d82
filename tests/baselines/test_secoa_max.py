"""SECOA_M: exact MAX with inflation/deflation protection."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.secoa.secoa_max import SECOAMaxProtocol, SECOAMaxRecord
from repro.errors import IntegrityError, ParameterError, ProtocolError
from repro.protocols.base import OpCounter
from repro.protocols.registry import create_protocol

N = 6


@pytest.fixture(scope="module")
def protocol() -> SECOAMaxProtocol:
    return SECOAMaxProtocol(N, rsa_bits=512, seed=71)


def _final(protocol: SECOAMaxProtocol, epoch: int, values: list[int]) -> SECOAMaxRecord:
    psrs = [protocol.create_source(i).initialize(epoch, v) for i, v in enumerate(values)]
    return protocol.create_aggregator().merge(epoch, psrs)


def test_registered_and_flags(protocol: SECOAMaxProtocol) -> None:
    assert isinstance(create_protocol("secoa_m", 2, rsa_bits=512, seed=1), SECOAMaxProtocol)
    assert protocol.provides_integrity and not protocol.provides_confidentiality
    assert protocol.exact


def test_exact_max_with_winner(protocol: SECOAMaxProtocol) -> None:
    values = [3, 17, 5, 17, 2, 9]
    final = _final(protocol, 1, values)
    result = protocol.create_querier().evaluate(1, final)
    assert result.value == 17
    assert result.verified
    assert result.extras["winner"] == 1  # the lower id of the two 17-holders


def test_tied_maxima_merge_alike_in_any_order(protocol: SECOAMaxProtocol) -> None:
    """Tied maxima go to the lowest source id, whatever the arrival order."""
    epoch = 10
    high, low = (protocol.create_source(i).initialize(epoch, 17) for i in (4, 2))
    agg = protocol.create_aggregator()
    merged = agg.merge(epoch, [high, low])
    assert merged == agg.merge(epoch, [low, high])
    assert merged.winner == 2


def test_hierarchical_merge_matches_flat(protocol: SECOAMaxProtocol) -> None:
    values = [4, 9, 2, 7, 1, 6]
    epoch = 2
    psrs = [protocol.create_source(i).initialize(epoch, v) for i, v in enumerate(values)]
    agg = protocol.create_aggregator()
    nested = agg.merge(epoch, [agg.merge(epoch, psrs[:3]), agg.merge(epoch, psrs[3:])])
    flat = agg.merge(epoch, psrs)
    assert nested.value == flat.value == 9
    assert nested.seal == flat.seal  # roll/fold commutativity


def test_inflation_detected(protocol: SECOAMaxProtocol) -> None:
    """Claiming a higher MAX requires forging the winner's HMAC."""
    final = _final(protocol, 3, [5, 8, 2, 1, 1, 1])
    inflated = dataclasses.replace(
        final,
        value=12,
        seal=protocol.seal_context.roll(final.seal, 12),  # adversary CAN roll
    )
    with pytest.raises(IntegrityError, match="inflation|SEAL"):
        protocol.create_querier().evaluate(3, inflated)


def test_deflation_detected(protocol: SECOAMaxProtocol) -> None:
    """Claiming a lower MAX would need a backwards roll of the SEAL."""
    values = [5, 8, 2, 1, 1, 1]
    epoch = 4
    psrs = [protocol.create_source(i).initialize(epoch, v) for i, v in enumerate(values)]
    # adversarial aggregator: present source 0's smaller value as the max,
    # with source 0's own (valid!) certificate, folding what it can.
    forged = dataclasses.replace(psrs[0], value=5)
    with pytest.raises(IntegrityError):
        protocol.create_querier().evaluate(epoch, forged)


def test_wrong_seal_position_detected(protocol: SECOAMaxProtocol) -> None:
    final = _final(protocol, 5, [3, 4, 5, 6, 7, 8])
    rolled = dataclasses.replace(final, seal=protocol.seal_context.roll(final.seal, 10))
    with pytest.raises(IntegrityError, match="position"):
        protocol.create_querier().evaluate(5, rolled)


def test_replay_across_epochs_detected(protocol: SECOAMaxProtocol) -> None:
    stale = _final(protocol, 6, [9, 1, 1, 1, 1, 1])
    replayed = dataclasses.replace(stale, epoch=7)
    with pytest.raises(IntegrityError):
        protocol.create_querier().evaluate(7, replayed)


def test_non_reporting_winner_rejected(protocol: SECOAMaxProtocol) -> None:
    final = _final(protocol, 8, [9, 1, 1, 1, 1, 1])
    with pytest.raises(IntegrityError, match="did not report"):
        protocol.create_querier().evaluate(8, final, reporting_sources=[1, 2, 3])


def test_reporting_subset_verifies(protocol: SECOAMaxProtocol) -> None:
    reporting = [1, 2, 4]
    epoch = 9
    psrs = [protocol.create_source(i).initialize(epoch, 10 + i) for i in reporting]
    final = protocol.create_aggregator().merge(epoch, psrs)
    result = protocol.create_querier().evaluate(epoch, final, reporting_sources=reporting)
    assert result.value == 14 and result.verified


def test_wire_size(protocol: SECOAMaxProtocol) -> None:
    psr = protocol.create_source(0).initialize(1, 3)
    assert psr.wire_size() == 4 + 20 + 64  # value + cert + 512-bit SEAL


def test_op_counts(protocol: SECOAMaxProtocol) -> None:
    ops = OpCounter()
    protocol.create_source(0, ops=ops).initialize(1, 7)
    assert ops.get("hm1") == 2 and ops.get("rsa") == 7
    ops = OpCounter()
    psrs = [protocol.create_source(i).initialize(2, v) for i, v in enumerate([3, 5, 4, 5, 1, 2])]
    protocol.create_aggregator(ops=ops).merge(2, psrs)
    assert ops.get("mul128") == 5  # F-1 folds
    assert ops.get("rsa") == (5 - 3) + (5 - 5) + (5 - 4) + (5 - 5) + (5 - 1) + (5 - 2)


def test_validation(protocol: SECOAMaxProtocol) -> None:
    with pytest.raises(ParameterError):
        protocol.create_source(0).initialize(1, -1)
    with pytest.raises(ProtocolError):
        protocol.create_aggregator().merge(1, [])
    with pytest.raises(ProtocolError):
        protocol.create_querier().evaluate(1, object())  # type: ignore[arg-type]
