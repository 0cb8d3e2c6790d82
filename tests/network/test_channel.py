"""Channel transmission, traffic accounting and interceptors."""

from __future__ import annotations

import dataclasses

from repro.core.source import SIESRecord
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.wire.codecs import SIESCodec
from repro.wire.frame import HEADER_LEN

SIZE = 32


def _channel() -> Channel:
    return Channel(SIESCodec(SIZE))


def _message(epoch: int = 1) -> DataMessage:
    return DataMessage(
        sender=0, receiver=1, epoch=epoch,
        psr=SIESRecord(ciphertext=123, epoch=epoch, modulus_bytes=SIZE),
    )


def test_traffic_counters_by_edge_class() -> None:
    channel = _channel()
    channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR)
    channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR)
    channel.transmit(_message(), EdgeClass.AGGREGATOR_TO_QUERIER)
    ledger = channel.ledger
    sa = ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR)
    assert sa.payload_bytes == 64 and sa.messages == 2
    assert ledger.per_message("payload_bytes", EdgeClass.SOURCE_TO_AGGREGATOR) == 32
    assert ledger.payload_bytes == {
        EdgeClass.SOURCE_TO_AGGREGATOR: 64,
        EdgeClass.AGGREGATOR_TO_QUERIER: 32,
    }
    assert ledger.total("payload_bytes") == 96
    # Every hop carries a real frame: the payload plus its header.
    assert ledger.total("frame_bytes") == 96 + 3 * HEADER_LEN


def test_mean_of_empty_class_is_zero() -> None:
    ledger = _channel().ledger
    assert ledger.per_message("payload_bytes", EdgeClass.AGGREGATOR_TO_AGGREGATOR) == 0.0
    assert ledger.by_class == {}  # reading the mean creates no entry


def test_counters_reset() -> None:
    channel = _channel()
    channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR)
    old = channel.ledger
    fresh = channel.begin_run()
    assert fresh is channel.ledger and fresh.total("payload_bytes") == 0
    assert old.total("payload_bytes") == 32


def test_interceptor_can_modify() -> None:
    channel = _channel()

    def bump(message, edge):
        return dataclasses.replace(
            message, psr=dataclasses.replace(message.psr, ciphertext=message.psr.ciphertext + 1)
        )

    channel.add_interceptor(bump)
    out = channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR)
    assert out is not None and out.psr.ciphertext == 124


def test_interceptor_can_drop_but_traffic_still_counted() -> None:
    channel = _channel()
    channel.add_interceptor(lambda m, e: None)
    assert channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR) is None
    # the sender still spent the transmission energy/bytes
    assert channel.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR).messages == 1


def test_interceptors_apply_in_order_and_short_circuit() -> None:
    channel = _channel()
    seen: list[str] = []

    def first(m, e):
        seen.append("first")
        return None

    def second(m, e):
        seen.append("second")
        return m

    channel.add_interceptor(first)
    channel.add_interceptor(second)
    channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR)
    assert seen == ["first"]  # drop short-circuits the chain


def test_remove_and_clear_interceptors() -> None:
    channel = _channel()
    drop = lambda m, e: None  # noqa: E731
    channel.add_interceptor(drop)
    channel.remove_interceptor(drop)
    assert channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR) is not None
    channel.add_interceptor(drop)
    channel.clear_interceptors()
    assert channel.transmit(_message(), EdgeClass.SOURCE_TO_AGGREGATOR) is not None


def test_edge_class_labels_match_paper() -> None:
    assert EdgeClass.SOURCE_TO_AGGREGATOR.value == "S-A"
    assert EdgeClass.AGGREGATOR_TO_AGGREGATOR.value == "A-A"
    assert EdgeClass.AGGREGATOR_TO_QUERIER.value == "A-Q"
