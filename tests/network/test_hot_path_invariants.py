"""What the analytic hot path must keep, however it is tuned.

* One SIES epoch on the analytic simulator evaluates the PRF exactly
  ``5N + 1`` times: three HMACs per source (Eq. 3) and ``2N + 1`` at the
  querier (Eq. 9).  The calls are counted by wrapping
  :meth:`~repro.crypto.prf.PRF.evaluate` at class level, the way the
  benchmark's tracer hooks it, so every derivation must go through it.
* The op ledgers equal the paper's Eq. 3 and Eq. 9 counts, in the order
  the roles charge them.
* A frame the channel encodes itself is still held to the size
  contract: a codec whose payload disagrees with ``wire_size()`` makes
  :meth:`~repro.network.channel.Channel.emit` raise.
* Set-up resolves its hashes to shared descriptors: a SIES set-up
  builds as many :class:`~repro.crypto.hashes.HashFunction` objects at
  N=64 as at N=16, one per algorithm.
* Each analytic hop builds one :class:`~repro.network.messages.DataMessage`,
  the one the receiver half delivers.
"""

from __future__ import annotations

import pytest

from repro import build_complete_tree
from repro.core.protocol import SIESProtocol
from repro.core.source import SIESRecord
from repro.crypto import hashes
from repro.crypto.prf import PRF
from repro.errors import WireEncodeError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.wire.codecs import SIESCodec


def _simulator(n: int, epochs: int = 1) -> NetworkSimulator:
    return NetworkSimulator(
        SIESProtocol(n, seed=3),
        build_complete_tree(n, fanout=4),
        lambda sid, epoch: (7 * sid + epoch) % 1000,
        SimulationConfig(num_epochs=epochs),
    )


@pytest.mark.parametrize("n", [16, 64])
def test_one_epoch_evaluates_the_prf_5n_plus_1_times(
    n: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    sim = _simulator(n)
    calls = 0
    original = PRF.evaluate

    def counted(self: PRF, message: bytes) -> bytes:
        nonlocal calls
        calls += 1
        return original(self, message)

    monkeypatch.setattr(PRF, "evaluate", counted)
    record = sim.run_epoch(1)
    assert record.result is not None and record.result.verified
    assert record.result.value == sum((7 * sid + 1) % 1000 for sid in range(n))
    assert calls == 5 * n + 1


@pytest.mark.parametrize("n", [16, 64])
def test_op_ledgers_equal_eq3_and_eq9(n: int) -> None:
    epochs = 3
    metrics = _simulator(n, epochs).run()
    assert metrics.all_verified()
    # Eq. 3, per source and epoch: 2·HM256 + HM1 + M32 + A32.
    assert metrics.source_ops.counts == {
        "hm256": 2 * n * epochs,
        "hm1": n * epochs,
        "mul32": n * epochs,
        "add32": n * epochs,
    }
    assert list(metrics.source_ops.counts) == ["hm256", "hm1", "mul32", "add32"]
    # Eq. 9, per epoch: (N+1)·HM256 + N·HM1 + (2N−1)·A32, one inverse, one multiplication.
    assert metrics.querier_ops.counts == {
        "hm256": (n + 1) * epochs,
        "hm1": n * epochs,
        "add32": (2 * n - 1) * epochs,
        "inv32": epochs,
        "mul32": epochs,
    }
    assert list(metrics.querier_ops.counts) == ["hm256", "hm1", "add32", "inv32", "mul32"]


class _LongPayloadCodec(SIESCodec):
    """Writes one byte more than the record's ``wire_size()`` announces."""

    def encode_payload(self, psr: SIESRecord) -> bytes:
        return super().encode_payload(psr) + b"\x00"


def test_emit_still_checks_a_fresh_frame_against_wire_size() -> None:
    channel = Channel(_LongPayloadCodec(32))
    psr = SIESRecord(ciphertext=123, epoch=1, modulus_bytes=32)
    with pytest.raises(WireEncodeError, match="diverged"):
        channel.emit(psr, EdgeClass.SOURCE_TO_AGGREGATOR)
    with pytest.raises(WireEncodeError, match="diverged"):
        channel.transmit(0, 1, EdgeClass.SOURCE_TO_AGGREGATOR, psr)
    # The honest codec's frame passes and is counted at its measured length.
    honest = Channel(SIESCodec(32))
    frame = honest.emit(psr, EdgeClass.SOURCE_TO_AGGREGATOR)
    assert frame is not None
    assert honest.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR).frame_bytes == len(frame)


def test_setup_builds_hash_descriptors_independent_of_n(monkeypatch: pytest.MonkeyPatch) -> None:
    built: list[str] = []
    real = hashes.HashFunction

    def counting(*args, **kwargs) -> hashes.HashFunction:
        descriptor = real(*args, **kwargs)
        built.append(descriptor.name)
        return descriptor

    monkeypatch.setattr(hashes, "HashFunction", counting)
    per_n = {}
    for n in (16, 64):
        monkeypatch.setattr(hashes, "_DESCRIPTORS", {})  # a cold table for each set-up
        built.clear()
        _simulator(n)
        per_n[n] = sorted(built)
    assert per_n[16] == ["sha1", "sha256"]
    assert per_n[64] == per_n[16]


def test_one_analytic_epoch_builds_one_data_message_per_transmit(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    n = 64
    sim = _simulator(n)
    built = transmits = 0
    real_init = DataMessage.__init__
    real_transmit = sim.channel.transmit

    def counting_init(self, *args, **kwargs) -> None:
        nonlocal built
        built += 1
        real_init(self, *args, **kwargs)

    def counting_transmit(*args, **kwargs):
        nonlocal transmits
        transmits += 1
        return real_transmit(*args, **kwargs)

    monkeypatch.setattr(DataMessage, "__init__", counting_init)
    monkeypatch.setattr(sim.channel, "transmit", counting_transmit)
    record = sim.run_epoch(1)
    assert record.result is not None and record.result.verified
    hops = n + sim.tree.num_aggregators
    assert transmits == hops
    assert built == hops
