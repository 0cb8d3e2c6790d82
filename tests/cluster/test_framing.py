"""Stream framing: reassembly at every byte boundary, typed failures only.

The satellite property: a byte stream holding complete wire frames must
reassemble to exactly those frames *no matter where the TCP chunk
boundaries fall* — exhaustively, at every split position — and every
malformed stream must fail with a :class:`~repro.errors.WireDecodeError`
subclass, never an untyped exception and never a silent resync.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster.framing import DEFAULT_MAX_PAYLOAD, FrameAssembler, FrameReader, FrameWriter
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


class TestFrameReaderWriter:
    def _drive(self, coro):
        return asyncio.run(coro)

    def test_reader_reassembles_fed_stream(self) -> None:
        async def scenario() -> list[bytes]:
            stream = asyncio.StreamReader()
            stream.feed_data(STREAM)
            stream.feed_eof()
            reader = FrameReader(stream)
            frames = []
            while (frame := await reader.read_frame()) is not None:
                frames.append(frame)
            assert reader.frames_read == len(FRAMES)
            # Clean EOF stays clean on repeated reads.
            assert await reader.read_frame() is None
            return frames

        assert self._drive(scenario()) == FRAMES

    def test_reader_truncated_eof_raises(self) -> None:
        async def scenario() -> None:
            stream = asyncio.StreamReader()
            stream.feed_data(STREAM + FRAMES[0][:-1])
            stream.feed_eof()
            reader = FrameReader(stream)
            for expected in FRAMES:
                assert await reader.read_frame() == expected
            with pytest.raises(FrameTruncatedError):
                await reader.read_frame()

        self._drive(scenario())

    def test_roundtrip_over_real_socket(self) -> None:
        """Writer → kernel TCP buffers → reader, byte-exact."""

        async def scenario() -> None:
            received: list[bytes] = []
            done = asyncio.Event()

            async def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
                frames = FrameReader(reader)
                while (frame := await frames.read_frame()) is not None:
                    received.append(frame)
                writer.close()
                await writer.wait_closed()
                done.set()

            server = await asyncio.start_server(serve, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            framed = FrameWriter(writer)
            for frame in FRAMES:
                framed.write_frame(frame)
            assert framed.frames_written == len(FRAMES)
            assert framed.bytes_written == len(STREAM)
            framed.close()
            await framed.wait_closed()
            await done.wait()
            server.close()
            await server.wait_closed()
            assert received == FRAMES

        self._drive(scenario())

    def test_writer_rejects_header_length_mismatch(self) -> None:
        """A sender bug must fail at the send site, not desync the peer."""

        async def scenario() -> None:
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            framed = FrameWriter(writer)
            with pytest.raises(WireEncodeError):
                framed.write_frame(FRAMES[0] + b"\x00")
            with pytest.raises(FrameTruncatedError):
                framed.write_frame(FRAMES[0][:-1])
            framed.close()
            await framed.wait_closed()
            server.close()
            await server.wait_closed()

        self._drive(scenario())

    def test_writer_refuses_a_closing_connection(self) -> None:
        """Writes never wait, so a dead link must fail at the write itself:
        a typed error, not a frame the transport silently drops."""

        async def scenario() -> None:
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            framed = FrameWriter(writer)
            framed.write_frame(FRAMES[0])
            framed.close()
            with pytest.raises(SimulationError, match="closing connection"):
                framed.write_frame(FRAMES[1])
            assert framed.frames_written == 1
            assert framed.bytes_written == len(FRAMES[0])
            await framed.wait_closed()
            server.close()
            await server.wait_closed()

        self._drive(scenario())
