"""Channel transmission, traffic accounting and interceptors.

Every transmission case runs twice: through :meth:`Channel.transmit` and
through its two halves, :meth:`Channel.emit` then :meth:`Channel.accept`,
the way the TCP cluster calls them on either side of a socket.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import build_complete_tree
from repro.core.protocol import SIESProtocol
from repro.core.source import SIESRecord
from repro.errors import WireEncodeError
from repro.network.channel import Channel, EdgeClass
from repro.network.messages import DataMessage
from repro.runtime import RuntimeConfig, RuntimeSimulator
from repro.wire.codecs import SIESCodec
from repro.wire.frame import HEADER_LEN

SIZE = 32


def _transmit(
    channel: Channel, message: DataMessage, edge: EdgeClass
) -> DataMessage | None:
    return channel.transmit(
        message.sender, message.receiver, edge, message.psr, manifest=message.manifest
    )


def _split(
    channel: Channel, message: DataMessage, edge: EdgeClass
) -> DataMessage | None:
    frame = channel.emit(message.psr, edge)
    if frame is None:
        return None
    return channel.accept(frame, message.sender, message.receiver, edge, message.manifest)


#: Both ways through the channel: one call, or sender half then receiver half.
SENDS = (_transmit, _split)


def _channel() -> Channel:
    return Channel(SIESCodec(SIZE))


def _message(epoch: int = 1, manifest: frozenset[int] = frozenset()) -> DataMessage:
    return DataMessage(
        sender=0, receiver=1, epoch=epoch,
        psr=SIESRecord(ciphertext=123, epoch=epoch, modulus_bytes=SIZE),
        manifest=manifest,
    )


def test_traffic_counters_by_edge_class() -> None:
    for send in SENDS:
        channel = _channel()
        send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR)
        send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR)
        send(channel, _message(), EdgeClass.AGGREGATOR_TO_QUERIER)
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
    for send in SENDS:
        channel = _channel()
        send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR)
        old = channel.ledger
        fresh = channel.begin_run()
        assert fresh is channel.ledger and fresh.total("payload_bytes") == 0
        assert old.total("payload_bytes") == 32


def test_interceptor_can_modify() -> None:
    for send in SENDS:
        channel = _channel()

        def bump(message, edge):
            return dataclasses.replace(
                message, psr=dataclasses.replace(message.psr, ciphertext=message.psr.ciphertext + 1)
            )

        channel.add_interceptor(bump)
        out = send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR)
        assert out is not None and out.psr.ciphertext == 124


def test_interceptor_can_drop_but_traffic_still_counted() -> None:
    for send in SENDS:
        channel = _channel()
        channel.add_interceptor(lambda m, e: None)
        assert send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR) is None
        # the sender still spent the transmission energy/bytes
        assert channel.ledger.edge(EdgeClass.SOURCE_TO_AGGREGATOR).messages == 1


def test_interceptors_apply_in_order_and_short_circuit() -> None:
    for send in SENDS:
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
        send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR)
        assert seen == ["first"]  # drop short-circuits the chain


def test_remove_and_clear_interceptors() -> None:
    for send in SENDS:
        channel = _channel()
        drop = lambda m, e: None  # noqa: E731
        channel.add_interceptor(drop)
        channel.remove_interceptor(drop)
        assert send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR) is not None
        channel.add_interceptor(drop)
        channel.clear_interceptors()
        assert send(channel, _message(), EdgeClass.SOURCE_TO_AGGREGATOR) is not None


def test_edge_class_labels_match_paper() -> None:
    assert EdgeClass.SOURCE_TO_AGGREGATOR.value == "S-A"
    assert EdgeClass.AGGREGATOR_TO_AGGREGATOR.value == "A-A"
    assert EdgeClass.AGGREGATOR_TO_QUERIER.value == "A-Q"


@pytest.mark.parametrize(
    "frame_interceptor",
    [None, lambda f, e: f[:-1], lambda f, e: f[:-1] + bytes([f[-1] ^ 1])],
    ids=["clean", "truncated", "payload-flip"],
)
def test_split_halves_equal_transmit(frame_interceptor) -> None:
    """``accept(emit(...))`` leaves the ledger and returns the message ``transmit`` does."""
    results = []
    for send in SENDS:
        channel = _channel()
        if frame_interceptor is not None:
            channel.add_frame_interceptor(frame_interceptor)
        out = send(channel, _message(manifest=frozenset({0, 2})), EdgeClass.SOURCE_TO_AGGREGATOR)
        results.append((out, channel.ledger.as_dict()))
    assert results[0] == results[1]


def test_manifest_travels_with_the_message() -> None:
    for send in SENDS:
        seen: list[frozenset[int]] = []
        channel = _channel()
        channel.add_interceptor(lambda m, e: (seen.append(m.manifest), m)[1])
        out = send(channel, _message(manifest=frozenset({3, 4})), EdgeClass.AGGREGATOR_TO_QUERIER)
        assert seen == [frozenset({3, 4})]
        assert out is not None and out.manifest == frozenset({3, 4})


def test_emit_counts_the_attempt_when_a_frame_interceptor_drops() -> None:
    channel = _channel()
    channel.add_frame_interceptor(lambda f, e: None)
    assert channel.emit(_message().psr, EdgeClass.AGGREGATOR_TO_AGGREGATOR) is None
    aa = channel.ledger.edge(EdgeClass.AGGREGATOR_TO_AGGREGATOR)
    assert (aa.messages, aa.payload_bytes, aa.frame_bytes) == (1, SIZE, SIZE + HEADER_LEN)
    assert aa.channel_decode_failures == 0


def test_emit_replays_a_given_frame_and_checks_its_size() -> None:
    channel = _channel()
    message = _message()
    frame = channel.codec.encode(message.psr)
    assert channel.emit(message.psr, EdgeClass.SOURCE_TO_AGGREGATOR, frame) is frame
    with pytest.raises(WireEncodeError, match="diverged"):
        channel.emit(message.psr, EdgeClass.SOURCE_TO_AGGREGATOR, frame + b"\x00")


def test_accept_counts_a_decode_failure() -> None:
    channel = _channel()
    seen: list[DataMessage] = []
    channel.add_interceptor(lambda m, e: (seen.append(m), m)[1])
    frame = channel.codec.encode(_message().psr)
    assert channel.accept(frame[:-1], 0, 1, EdgeClass.AGGREGATOR_TO_QUERIER) is None
    aq = channel.ledger.edge(EdgeClass.AGGREGATOR_TO_QUERIER)
    assert aq.channel_decode_failures == 1
    assert aq.messages == 0  # the receiver half counts no attempt
    assert seen == []  # an undecodable frame never reaches the PSR interceptors


def test_runtime_psr_interceptor_sees_each_parcels_manifest() -> None:
    """On the runtime every parcel's manifest reaches the PSR interceptors
    as the epoch driver sent it: a source's own id, an aggregator's
    merged subtree (lossless, so the whole subtree)."""
    n = 16
    tree = build_complete_tree(n, fanout=4)
    sim = RuntimeSimulator(
        SIESProtocol(n, seed=3), tree, lambda sid, epoch: sid + epoch, RuntimeConfig(num_epochs=2)
    )
    seen: dict[tuple[int, int], frozenset[int]] = {}

    def record(message: DataMessage, edge: EdgeClass) -> DataMessage:
        seen[(message.sender, message.epoch)] = message.manifest
        return message

    sim.channel.add_interceptor(record)
    assert all(record.accepted for record in sim.run().epochs)
    expected = {sid: frozenset({sid}) for sid in tree.source_ids}
    expected.update(
        {aid: frozenset(tree.leaves_under(aid)) for aid in tree.aggregator_ids}
    )
    assert seen == {(node, epoch): m for node, m in expected.items() for epoch in (1, 2)}
