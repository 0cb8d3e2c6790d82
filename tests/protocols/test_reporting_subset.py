"""Every querier refuses a malformed reporting subset the same way.

A reporting subset that is empty, names a source twice, reaches outside
``[0, N)`` or holds something other than an ``int`` is a caller error,
not an attack: SIES, CMT, SECOA_S and SECOA_M each raise
:class:`~repro.errors.ProtocolError` for it before using it, instead of
answering a garbage SUM, reporting an integrity failure or leaking a raw
``IndexError``/``TypeError``.
"""

from __future__ import annotations

import pytest

from repro.baselines.cmt import CMTProtocol
from repro.baselines.secoa.secoa_max import SECOAMaxProtocol
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.errors import ProtocolError
from repro.protocols.base import SecureAggregationProtocol

N = 4
EPOCH = 3

PROTOCOLS = {
    "sies": lambda: SIESProtocol(N, seed=5),
    "cmt": lambda: CMTProtocol(N, seed=5),
    "secoa_s": lambda: SECOASumProtocol(N, num_sketches=4, rsa_bits=512, seed=5),
    "secoa_m": lambda: SECOAMaxProtocol(N, rsa_bits=512, seed=5),
}

#: name → (reporting subset, message the ProtocolError must match)
BAD_SUBSETS = {
    "empty": ([], "no reporting sources"),
    "duplicate": ([0, 1, 1], "duplicate reporting source id 1"),
    "negative": ([0, -3], r"reporting source id -3 is outside \[0, 4\)"),
    "too-large": ([0, 9], r"reporting source id 9 is outside \[0, 4\)"),
    "float": ([0, 1.0], "reporting source id 1.0 is not an int"),
    "bool": ([0, True], "reporting source id True is not an int"),
    "str": ([0, "1"], "reporting source id '1' is not an int"),
}


@pytest.fixture(scope="module", params=sorted(PROTOCOLS))
def deployment(request) -> tuple[SecureAggregationProtocol, object]:
    """A protocol and an honest final PSR over sources 0 and 1."""
    protocol = PROTOCOLS[request.param]()
    psrs = [protocol.create_source(sid).initialize(EPOCH, 10 + sid) for sid in (0, 1)]
    aggregator = protocol.create_aggregator()
    return protocol, aggregator.finalize_for_querier(aggregator.merge(EPOCH, psrs))


@pytest.mark.parametrize("case", sorted(BAD_SUBSETS))
def test_a_malformed_subset_is_a_protocol_error(deployment, case: str) -> None:
    protocol, final = deployment
    subset, message = BAD_SUBSETS[case]
    with pytest.raises(ProtocolError, match=message):
        protocol.create_querier().evaluate(EPOCH, final, reporting_sources=subset)


def test_the_honest_subset_still_evaluates(deployment) -> None:
    protocol, final = deployment
    result = protocol.create_querier().evaluate(EPOCH, final, reporting_sources=(0, 1))
    if protocol.name == "secoa_m":
        assert result.value == 11
    elif protocol.exact:
        assert result.value == 21
    assert result.extras["contributors"] == 2


def test_all_sources_is_none_and_a_subset_is_a_fresh_list() -> None:
    from repro.protocols.base import validated_reporting_subset

    assert validated_reporting_subset(None, N) is None
    subset = (3, 0)
    assert validated_reporting_subset(subset, N) == [3, 0]
