"""Wire-codec throughput: encode/decode frames per second per protocol.

The codec layer sits on every simulated radio hop, so its throughput
bounds large-N simulation speed.  This benchmark measures raw
``encode`` and ``decode`` rates for each built-in codec at paper
parameters, plus the full channel round trip (encode → decode →
delivery), giving future perf work a trajectory baseline for the
serialization tax.

Run with::

    PYTHONPATH=src pytest benchmarks/test_wire_codec.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.baselines.cmt import CMTProtocol
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.network.channel import Channel, EdgeClass

SEED = 2011
BATCH = 512
EPOCH = 1


def _sies_fixture():
    protocol = SIESProtocol(64, seed=SEED)
    psr = protocol.create_source(0).initialize(EPOCH, 1234)
    return protocol.wire_codec(), psr


def _cmt_fixture():
    protocol = CMTProtocol(64, seed=SEED)
    psr = protocol.create_source(0).initialize(EPOCH, 1234)
    return protocol.wire_codec(), psr


def _secoa_fixture():
    protocol = SECOASumProtocol(8, num_sketches=3, seed=SEED)
    psr = protocol.create_source(0).initialize(EPOCH, 1234)
    return protocol.wire_codec(), psr


FIXTURES = {
    "sies": _sies_fixture,
    "cmt": _cmt_fixture,
    "secoa_s": _secoa_fixture,
}


def _report_rate(benchmark, per_call_items: int) -> None:
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["frames_per_second"] = (
        per_call_items / mean if mean else float("inf")
    )


@pytest.mark.benchmark(group="wire-encode")
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_encode_throughput(benchmark, name: str) -> None:
    codec, psr = FIXTURES[name]()

    def encode_batch():
        for _ in range(BATCH):
            codec.encode(psr)

    benchmark.pedantic(encode_batch, rounds=5, iterations=1)
    _report_rate(benchmark, BATCH)


@pytest.mark.benchmark(group="wire-decode")
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decode_throughput(benchmark, name: str) -> None:
    codec, psr = FIXTURES[name]()
    frame = codec.encode(psr)

    def decode_batch():
        for _ in range(BATCH):
            codec.decode(frame)

    decoded = benchmark.pedantic(decode_batch, rounds=5, iterations=1)
    assert decoded is None
    assert codec.decode(frame).epoch == psr.epoch
    _report_rate(benchmark, BATCH)


@pytest.mark.benchmark(group="wire-channel")
def test_channel_roundtrip_tax(benchmark) -> None:
    """Full transmit() path: the per-hop cost the simulators pay."""
    protocol = SIESProtocol(64, seed=SEED)
    psr = protocol.create_source(0).initialize(EPOCH, 1234)
    channel = Channel(protocol.wire_codec())

    def transmit_batch():
        for _ in range(BATCH):
            channel.transmit(0, 1, EdgeClass.SOURCE_TO_AGGREGATOR, psr)

    benchmark.pedantic(transmit_batch, rounds=5, iterations=1)
    _report_rate(benchmark, BATCH)
