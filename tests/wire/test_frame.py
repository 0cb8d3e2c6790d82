"""Frame-header layer: layout, versioning, typed failure modes."""

from __future__ import annotations

import struct

import pytest

from repro.core.source import SIESRecord
from repro.errors import (
    FrameLengthError,
    FrameMagicError,
    FrameProtocolIdError,
    FrameTruncatedError,
    FrameVersionError,
    WireDecodeError,
    WireEncodeError,
)
from repro.wire.codecs import SIESCodec
from repro.wire.frame import (
    HEADER_LEN,
    MAGIC,
    MAX_PAYLOAD_LEN,
    WIRE_VERSION,
    decode_frame,
    decode_header,
    encode_frame,
)


class TestHeaderLayout:
    def test_header_is_sixteen_bytes(self) -> None:
        frame = encode_frame(1, 0, b"")
        assert len(frame) == HEADER_LEN == 16

    def test_fields_at_documented_offsets(self) -> None:
        frame = encode_frame(0x2A, 0x0102030405060708, b"xyz")
        assert frame[0:2] == MAGIC
        assert frame[2] == WIRE_VERSION
        assert frame[3] == 0x2A
        assert frame[4:12] == bytes.fromhex("0102030405060708")
        assert frame[12:16] == (3).to_bytes(4, "big")
        assert frame[16:] == b"xyz"

    def test_roundtrip_header(self) -> None:
        header, payload = decode_frame(encode_frame(7, 123456789, b"\x00" * 40))
        assert header.protocol_id == 7
        assert header.epoch == 123456789
        assert header.payload_len == 40
        assert header.version == WIRE_VERSION
        assert payload == b"\x00" * 40

    def test_epoch_full_eight_byte_range(self) -> None:
        epoch = (1 << 64) - 1
        header, _ = decode_frame(encode_frame(1, epoch, b""))
        assert header.epoch == epoch


class TestEncodeValidation:
    @pytest.mark.parametrize("protocol_id", [-1, 0x100])
    def test_protocol_id_out_of_range(self, protocol_id: int) -> None:
        with pytest.raises(WireEncodeError):
            encode_frame(protocol_id, 1, b"")

    @pytest.mark.parametrize("epoch", [-1, 1 << 64])
    def test_epoch_out_of_range(self, epoch: int) -> None:
        with pytest.raises(WireEncodeError):
            encode_frame(1, epoch, b"")

    def test_max_payload_len_is_4byte_bound(self) -> None:
        assert MAX_PAYLOAD_LEN == (1 << 32) - 1

    @pytest.mark.parametrize(
        "protocol_id,epoch,match",
        [(0x100, 1, "protocol id"), (-1, 1, "protocol id"), (1, 1 << 64, "epoch"), (1, -1, "epoch")],
    )
    def test_field_errors_are_typed_never_struct_errors(
        self, protocol_id: int, epoch: int, match: str
    ) -> None:
        with pytest.raises(WireEncodeError, match=match) as caught:
            encode_frame(protocol_id, epoch, b"")
        error = caught.value
        assert not isinstance(error, struct.error)
        assert error.__cause__ is None
        assert error.__context__ is None or error.__suppress_context__

    def test_payload_over_the_length_field(self) -> None:
        class Oversized:
            def __len__(self) -> int:
                return MAX_PAYLOAD_LEN + 1

        with pytest.raises(WireEncodeError, match="4-byte length"):
            encode_frame(1, 1, Oversized())  # type: ignore[arg-type]

    def test_non_integer_field_is_typed(self) -> None:
        with pytest.raises(WireEncodeError):
            encode_frame(1.5, 1, b"")  # type: ignore[arg-type]


class TestDecodeErrors:
    def test_truncated_header(self) -> None:
        with pytest.raises(FrameTruncatedError):
            decode_header(b"\x9aS\x01")

    def test_empty_frame(self) -> None:
        with pytest.raises(FrameTruncatedError):
            decode_frame(b"")

    def test_bad_magic(self) -> None:
        frame = bytearray(encode_frame(1, 1, b"abc"))
        frame[0] ^= 0xFF
        with pytest.raises(FrameMagicError):
            decode_frame(bytes(frame))

    def test_unknown_version(self) -> None:
        frame = bytearray(encode_frame(1, 1, b"abc"))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(FrameVersionError):
            decode_frame(bytes(frame))

    def test_payload_length_mismatch_short(self) -> None:
        frame = encode_frame(1, 1, b"abcdef")
        with pytest.raises(FrameLengthError):
            decode_frame(frame[:-2])

    def test_payload_length_mismatch_long(self) -> None:
        frame = encode_frame(1, 1, b"abcdef")
        with pytest.raises(FrameLengthError):
            decode_frame(frame + b"!!")

    def test_all_decode_errors_are_wire_decode_errors(self) -> None:
        for exc in (FrameTruncatedError, FrameMagicError, FrameVersionError, FrameLengthError):
            assert issubclass(exc, WireDecodeError)


#: ``encode_frame(0x2A, 0x0102030405060708, b"xyz")`` — pinned bytes.
GOLDEN_FRAME = bytes.fromhex("9a53" "01" "2a" "0102030405060708" "00000003") + b"xyz"
#: A 4-byte SIES residue 0xDEADBEEF at epoch 7 — pinned bytes.
GOLDEN_SIES_FRAME = bytes.fromhex("9a53" "01" "01" "0000000000000007" "00000004" "deadbeef")


class TestGoldenBytes:
    def test_wire_version_is_one(self) -> None:
        assert WIRE_VERSION == 1

    def test_header_golden_vector(self) -> None:
        assert encode_frame(0x2A, 0x0102030405060708, b"xyz") == GOLDEN_FRAME

    def test_sies_golden_vector(self) -> None:
        record = SIESRecord(ciphertext=0xDEADBEEF, epoch=7, modulus_bytes=4)
        assert SIESCodec(4).encode(record) == GOLDEN_SIES_FRAME
        assert SIESCodec(4).decode(GOLDEN_SIES_FRAME) == record


def _in_a_larger_buffer(frame: bytes) -> memoryview:
    """A memoryview slice that starts part-way into its bytearray."""
    return memoryview(bytearray(b"pad" + frame + b"tail"))[3 : 3 + len(frame)]


#: Every buffer type a receiver may hand the decoder.
BUFFERS = pytest.mark.parametrize(
    "wrap",
    [bytes, bytearray, memoryview, _in_a_larger_buffer],
    ids=["bytes", "bytearray", "memoryview", "memoryview-slice"],
)


class TestBufferTypes:
    @BUFFERS
    def test_decode_header_reads_every_buffer_alike(self, wrap) -> None:
        assert decode_header(wrap(GOLDEN_FRAME)) == decode_header(GOLDEN_FRAME)

    @BUFFERS
    def test_decode_frame_returns_bytes_payload(self, wrap) -> None:
        header, payload = decode_frame(wrap(GOLDEN_FRAME))
        assert (header, payload) == decode_frame(GOLDEN_FRAME)
        assert type(payload) is bytes and payload == b"xyz"

    @BUFFERS
    def test_codec_decode_is_buffer_agnostic(self, wrap) -> None:
        record = SIESCodec(4).decode(wrap(GOLDEN_SIES_FRAME))
        assert record == SIESCodec(4).decode(GOLDEN_SIES_FRAME)

    @BUFFERS
    def test_errors_are_the_same_on_every_buffer(self, wrap) -> None:
        with pytest.raises(FrameTruncatedError):
            decode_frame(wrap(GOLDEN_FRAME[: HEADER_LEN - 1]))
        with pytest.raises(FrameLengthError):
            decode_frame(wrap(GOLDEN_FRAME[:-1]))
        with pytest.raises(FrameMagicError):
            decode_frame(wrap(b"\x00" + GOLDEN_FRAME[1:]))
        with pytest.raises(FrameProtocolIdError):
            SIESCodec(4).decode(wrap(GOLDEN_FRAME[:3] + b"\x02" + GOLDEN_SIES_FRAME[4:]))

    def test_payload_does_not_alias_the_input(self) -> None:
        buffer = bytearray(GOLDEN_FRAME)
        _, payload = decode_frame(buffer)
        buffer[HEADER_LEN:] = b"XYZ"
        assert payload == b"xyz"

    @pytest.mark.parametrize("frame", [None, "9aS", 16, [0x9A, 0x53]])
    def test_non_buffers_are_truncation_errors(self, frame) -> None:
        with pytest.raises(FrameTruncatedError):
            decode_header(frame)

    def test_check_order_is_magic_version_length_protocol_id(self) -> None:
        broken = bytearray(GOLDEN_SIES_FRAME + b"!")  # length wrong
        broken[3] = 0x02  # foreign protocol id
        with pytest.raises(FrameLengthError):
            SIESCodec(4).decode(bytes(broken))
        broken[2] = WIRE_VERSION + 1
        with pytest.raises(FrameVersionError):
            SIESCodec(4).decode(bytes(broken))
        broken[0] ^= 0xFF
        with pytest.raises(FrameMagicError):
            SIESCodec(4).decode(bytes(broken))


class TestFrameHeader:
    def test_header_is_immutable(self) -> None:
        header = decode_header(GOLDEN_FRAME)
        with pytest.raises(AttributeError):
            header.epoch = 0  # type: ignore[misc]
        with pytest.raises(AttributeError):
            header.extra = 0  # type: ignore[attr-defined]
        assert header.epoch == 0x0102030405060708

    def test_fields_and_total_len(self) -> None:
        header = decode_header(GOLDEN_FRAME)
        assert (header.version, header.protocol_id, header.payload_len) == (WIRE_VERSION, 0x2A, 3)
        assert header.total_len == len(GOLDEN_FRAME)
