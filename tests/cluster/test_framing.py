"""Stream framing: reassembly at every byte boundary, typed failures only.

The satellite property: a byte stream holding complete wire frames must
reassemble to exactly those frames *no matter where the TCP chunk
boundaries fall* — exhaustively, at every split position — and every
malformed stream must fail with a :class:`~repro.errors.WireDecodeError`
subclass, never an untyped exception and never a silent resync.  The
last class drives a cluster connection (the ``asyncio.Protocol`` each
node reads its frames with) over a real localhost socket.
"""

from __future__ import annotations

import asyncio
import random
import socket
from types import SimpleNamespace

import pytest

from repro.cluster.envelope import AckEnvelope, DataEnvelope, decode_envelope, encode_ack, encode_data
from repro.cluster.framing import DEFAULT_MAX_PAYLOAD, FrameAssembler
from repro.cluster.node import _Link
from repro.errors import (
    FrameLengthError,
    FrameMagicError,
    FrameTruncatedError,
    SimulationError,
    WireDecodeError,
    WireEncodeError,
)
from repro.wire.frame import HEADER_LEN, encode_frame

# Payload sizes chosen to exercise the edge cases: empty, one byte, and
# larger than the 16-byte header so splits land inside the payload too.
FRAMES = [
    encode_frame(1, 7, b""),
    encode_frame(2, 8, b"\x00"),
    encode_frame(240, (1 << 40) + 3, bytes(range(37))),
]
STREAM = b"".join(FRAMES)


class TestFrameAssembler:
    def test_whole_stream_in_one_feed(self) -> None:
        assembler = FrameAssembler()
        assert assembler.feed(STREAM) == FRAMES
        assert assembler.at_boundary
        assembler.finish()  # clean EOF

    def test_reassembly_at_every_byte_boundary(self) -> None:
        """The tentpole property, exhaustive over all split positions."""
        for cut in range(len(STREAM) + 1):
            assembler = FrameAssembler()
            frames = assembler.feed(STREAM[:cut]) + assembler.feed(STREAM[cut:])
            assert frames == FRAMES, f"split at byte {cut} corrupted reassembly"
            assert all(type(frame) is bytes for frame in frames)
            assert assembler.at_boundary
            assembler.finish()

    def test_reassembly_one_byte_at_a_time(self) -> None:
        assembler = FrameAssembler()
        frames: list[bytes] = []
        for index in range(len(STREAM)):
            frames.extend(assembler.feed(STREAM[index : index + 1]))
            # Never more buffered than one incomplete frame.
            assert assembler.buffered < HEADER_LEN + DEFAULT_MAX_PAYLOAD
        assert frames == FRAMES

    def test_reassembly_under_random_chunking(self) -> None:
        rng = random.Random(2011)
        for _ in range(50):
            blob = STREAM * 3
            assembler = FrameAssembler()
            frames: list[bytes] = []
            while blob:
                cut = rng.randint(1, len(blob))
                frames.extend(assembler.feed(blob[:cut]))
                blob = blob[cut:]
            assert frames == FRAMES * 3
            assembler.finish()

    def test_counters_are_monotonic_totals(self) -> None:
        assembler = FrameAssembler()
        assembler.feed(STREAM)
        assert assembler.frames_out == len(FRAMES)
        assert assembler.bytes_in == len(STREAM)

    def test_truncated_eof_raises_typed_error(self) -> None:
        for cut in range(1, len(FRAMES[2])):
            assembler = FrameAssembler()
            assembler.feed(FRAMES[2][:cut])
            assert not assembler.at_boundary
            with pytest.raises(FrameTruncatedError):
                assembler.finish()

    def test_oversized_payload_rejected_before_buffering(self) -> None:
        """The max-frame guard fires on the *header*, before any payload."""
        frame = encode_frame(1, 1, bytes(65))
        assembler = FrameAssembler(max_payload=64)
        with pytest.raises(FrameLengthError):
            # Only the header goes in: the announced length alone convicts.
            assembler.feed(frame[:HEADER_LEN])
        assert assembler.buffered <= HEADER_LEN  # payload never accumulated

    def test_payload_at_guard_boundary_accepted(self) -> None:
        frame = encode_frame(1, 1, bytes(64))
        assembler = FrameAssembler(max_payload=64)
        assert assembler.feed(frame) == [frame]

    def test_bad_magic_raises_typed_error(self) -> None:
        assembler = FrameAssembler()
        with pytest.raises(FrameMagicError):
            assembler.feed(b"\x00" * HEADER_LEN)

    def test_poisoned_assembler_refuses_resync(self) -> None:
        assembler = FrameAssembler()
        with pytest.raises(FrameMagicError):
            assembler.feed(b"\x00" * HEADER_LEN)
        # A poisoned stream position is gone for good: even valid frames
        # re-raise the original error instead of pretending to recover.
        with pytest.raises(FrameMagicError):
            assembler.feed(FRAMES[0])
        with pytest.raises(FrameMagicError):
            assembler.finish()

    def test_every_header_corruption_is_typed(self) -> None:
        for index in range(HEADER_LEN):
            for frame in FRAMES:
                mutated = bytearray(frame)
                mutated[index] ^= 0xFF
                assembler = FrameAssembler()
                try:
                    assembler.feed(bytes(mutated))
                    assembler.finish()
                except WireDecodeError:
                    pass  # typed rejection is the contract
                # Flipping payload bytes (or the low length byte such that
                # the stream still parses) may legitimately succeed at this
                # layer; framing checks the header, codecs check payloads.

    def test_nonpositive_max_payload_rejected(self) -> None:
        with pytest.raises(WireEncodeError):
            FrameAssembler(max_payload=0)


#: Data envelopes as a child writes them up its uplink.
ENVELOPES = [
    encode_data(epoch=1, sender=0, uid=1, attempt=0, manifest=frozenset({0}), inner=FRAMES[0]),
    encode_data(epoch=2, sender=0, uid=2, attempt=3, manifest=frozenset({0, 5}), inner=FRAMES[2]),
    encode_data(epoch=(1 << 40) + 3, sender=7, uid=9, attempt=1, manifest=frozenset(), inner=FRAMES[1]),
]


class _Ends:
    """One real localhost connection between two cluster links.

    The parent end takes data envelopes (as a node's accepted connection
    does) and records them; the child end is an uplink.  Each end's node
    is a stub holding only what a link uses of it: the guard and the
    stream-error counter.
    """

    async def open(self) -> "_Ends":
        self.parent = SimpleNamespace(guard=lambda fn, *args: fn(*args), stream_errors=0)
        self.child = SimpleNamespace(guard=lambda fn, *args: fn(*args), stream_errors=0)
        self.received: list[DataEnvelope] = []
        self.accepted: list[_Link] = []
        loop = asyncio.get_running_loop()

        def accept() -> _Link:
            link = _Link(self.parent, DataEnvelope, lambda envelope, _: self.received.append(envelope))
            self.accepted.append(link)
            return link

        self.server = await loop.create_server(accept, host="127.0.0.1", port=0)
        port = self.server.sockets[0].getsockname()[1]
        _, self.uplink = await loop.create_connection(
            lambda: _Link(self.child, AckEnvelope, lambda envelope, _: None), "127.0.0.1", port
        )
        return self

    async def dribble(self, stream: bytes, size: int) -> None:
        """Write *stream* raw in *size*-byte chunks, yielding to the loop between them."""
        for start in range(0, len(stream), size):
            self.uplink._transport.write(stream[start : start + size])
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        """Half-close the uplink and wait until both ends are gone."""
        self.uplink.half_close()
        await self.uplink.closed
        for link in self.accepted:
            await link.closed
        self.server.close()
        await self.server.wait_closed()


@pytest.mark.cluster
class TestClusterLink:
    def test_reassembly_over_a_real_socket_is_byte_exact(self) -> None:
        """Frames split across TCP chunks, through the kernel, come out whole."""

        async def scenario() -> _Ends:
            ends = await _Ends().open()
            await ends.dribble(b"".join(ENVELOPES), 5)
            await ends.close()
            return ends

        ends = asyncio.run(scenario())
        assert ends.received == [decode_envelope(envelope) for envelope in ENVELOPES]
        assert [envelope.inner for envelope in ends.received] == [FRAMES[0], FRAMES[2], FRAMES[1]]
        assert ends.parent.stream_errors == ends.child.stream_errors == 0

    def test_clean_eof_closes_both_ends(self) -> None:
        """A half-close on a frame boundary ends the connection without error."""

        async def scenario() -> _Ends:
            ends = await _Ends().open()
            for envelope in ENVELOPES:
                ends.uplink.write(envelope)
            await ends.close()
            return ends

        ends = asyncio.run(scenario())
        assert len(ends.received) == len(ENVELOPES)
        assert ends.parent.stream_errors == ends.child.stream_errors == 0
        assert ends.uplink.closed.result() is None

    def test_eof_mid_frame_is_a_stream_error(self) -> None:
        async def scenario() -> _Ends:
            ends = await _Ends().open()
            await ends.dribble(ENVELOPES[0] + ENVELOPES[1][:-1], 64)
            await ends.close()
            return ends

        ends = asyncio.run(scenario())
        assert ends.received == [decode_envelope(ENVELOPES[0])]
        assert ends.parent.stream_errors == 1
        assert ends.child.stream_errors == 0

    def test_an_envelope_going_the_wrong_way_drops_the_connection(self) -> None:
        async def scenario() -> _Ends:
            ends = await _Ends().open()
            ends.uplink.write(encode_ack(epoch=1, uid=1, attempt=0))
            await ends.uplink.closed  # the parent closed on us
            await ends.close()
            return ends

        ends = asyncio.run(scenario())
        assert ends.received == []
        assert ends.parent.stream_errors == 1

    def test_write_refuses_a_header_length_mismatch(self) -> None:
        """A sender bug must fail at the send site, not desync the peer."""

        async def scenario() -> _Ends:
            ends = await _Ends().open()
            with pytest.raises(WireEncodeError):
                ends.uplink.write(ENVELOPES[0] + b"\x00")
            with pytest.raises(FrameTruncatedError):
                ends.uplink.write(FRAMES[0][:-1])
            await ends.close()
            return ends

        ends = asyncio.run(scenario())
        assert ends.received == []  # nothing reached the wire
        assert ends.parent.stream_errors == 0

    def test_write_refuses_a_closing_connection(self) -> None:
        """Writes never wait, so a dead link must fail at the write itself:
        a typed error, not a frame the transport silently drops."""

        async def scenario() -> _Ends:
            ends = await _Ends().open()
            ends.uplink.write(ENVELOPES[0])
            ends.uplink._transport.close()
            with pytest.raises(SimulationError, match="closing connection"):
                ends.uplink.write(ENVELOPES[1])
            await ends.uplink.closed
            for link in ends.accepted:
                await link.closed
            ends.server.close()
            await ends.server.wait_closed()
            return ends

        ends = asyncio.run(scenario())
        assert ends.received == [decode_envelope(ENVELOPES[0])]

    def test_both_ends_name_a_connection_alike_even_when_a_local_port_repeats(self) -> None:
        """Two uplinks on one local port towards two parents are two
        connections: each end's outbound name is the other end's inbound
        name, and the two connections' names differ."""

        async def scenario() -> list[tuple[_Link, _Link]]:
            loop = asyncio.get_running_loop()
            node = SimpleNamespace(guard=lambda fn, *args: fn(*args), stream_errors=0)
            accepted: list[_Link] = []

            def accept() -> _Link:
                link = _Link(node, DataEnvelope, lambda envelope, _: None)
                accepted.append(link)
                return link

            servers = [await loop.create_server(accept, host="127.0.0.1", port=0) for _ in range(2)]
            local_port = None
            pairs = []
            for server in servers:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", local_port or 0))
                local_port = sock.getsockname()[1]
                sock.setblocking(False)
                await loop.sock_connect(sock, server.sockets[0].getsockname())
                _, uplink = await loop.create_connection(
                    lambda: _Link(node, AckEnvelope, lambda envelope, _: None), sock=sock
                )
                while len(accepted) < len(pairs) + 1:
                    await asyncio.sleep(0.001)
                pairs.append((uplink, accepted[-1]))
            for uplink, _ in pairs:
                uplink.half_close()
                await uplink.closed
            for server in servers:
                server.close()
                await server.wait_closed()
            return pairs

        pairs = asyncio.run(scenario())
        (up_a, down_a), (up_b, down_b) = pairs
        assert up_a._transport.get_extra_info("sockname") == up_b._transport.get_extra_info(
            "sockname"
        )
        for uplink, parent_end in pairs:
            assert uplink.outbound == parent_end.inbound
            assert parent_end.outbound == uplink.inbound
        assert up_a.outbound != up_b.outbound and up_a.inbound != up_b.inbound

