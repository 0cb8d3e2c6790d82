"""Malformed-frame fuzzing: every failure is a typed ``WireDecodeError``.

The decoder's contract under attack: whatever bytes arrive, decoding
either returns a PSR or raises something in the
:class:`~repro.errors.WireDecodeError` family.  Nothing else — no
``AssertionError`` (would vanish under ``python -O``; the contract is
re-run in an optimised subprocess by ``tests/test_optimized_mode.py``),
no ``struct.error``/``IndexError``/``KeyError`` leaking from parsing
internals (the header is one ``struct`` layout, read in place from
``bytes``, ``bytearray`` or ``memoryview``), and no broad ``except``
hiding a crash.  Mutations are seeded, so a failure reproduces from the
printed seed.

The fixed-width codecs (SIES, CMT) decode a frame in one ``struct``
unpack; a differential test runs that decode and the two-step reference
(``decode_frame``, the protocol-id check, ``decode_payload``) on every
case the fuzzer generates, and both must return an equal record or
raise the same exception class.
"""

from __future__ import annotations

import random
import struct
from collections import Counter
from collections.abc import Iterator

import pytest

from repro.baselines.commit_attest import CommitAttestProtocol, CommitLabelRecord
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.errors import FrameProtocolIdError, PayloadFormatError, WireDecodeError
from repro.protocols.base import PartialStateRecord
from repro.protocols.registry import create_protocol
from repro.wire.frame import HEADER_LEN, decode_frame

EPOCH = 4
ROUNDS = 300


def _codec_and_frame(name: str):
    if name == "secoa_s":
        protocol = SECOASumProtocol(4, num_sketches=3, seed=3)
        psr = protocol.create_source(0).initialize(EPOCH, 42)
    elif name == "commit_attest":
        protocol = CommitAttestProtocol(4, seed=3)
        psr = CommitLabelRecord(node=protocol.commit([1, 2, 3, 4], EPOCH).root, epoch=EPOCH)
    else:
        protocol = create_protocol(name, 4, seed=3)
        psr = protocol.create_source(0).initialize(EPOCH, 42)
    codec = protocol.wire_codec()
    return codec, codec.encode(psr)


#: Parsing internals that must never escape the decoder.
_LEAKS = (struct.error, IndexError, KeyError, ValueError, TypeError, BufferError, AssertionError)


def _decode_strict(codec, blob: bytes) -> None:
    """Decode must return a PSR or raise *only* a WireDecodeError.

    The header is read in place, so every blob is also decoded as a
    ``bytearray`` and a ``memoryview``.
    """
    for buffer in (blob, bytearray(blob), memoryview(blob)):
        try:
            codec.decode(buffer)
        except WireDecodeError:
            pass
        except _LEAKS as exc:
            pytest.fail(f"{type(exc).__name__} escaped the decoder: {exc}")


PROTOCOLS = ("sies", "cmt", "secoa_s", "commit_attest")


def _garbage(name: str, frame: bytes) -> Iterator[bytes]:
    rng = random.Random(f"garbage-{name}")
    for _ in range(ROUNDS):
        yield rng.randbytes(rng.randrange(0, 2 * len(frame)))


def _truncations(frame: bytes) -> Iterator[bytes]:
    for cut in range(len(frame)):
        yield frame[:cut]


def _header_mutations(frame: bytes) -> Iterator[bytes]:
    for index in range(HEADER_LEN):
        for xor in (0x01, 0x80, 0xFF):
            mutated = bytearray(frame)
            mutated[index] ^= xor
            yield bytes(mutated)


def _splices(name: str, frame: bytes) -> Iterator[bytes]:
    """Cut-and-paste of two valid frames at random offsets."""
    rng = random.Random(f"splice-{name}")
    for _ in range(ROUNDS):
        i = rng.randrange(0, len(frame) + 1)
        j = rng.randrange(0, len(frame) + 1)
        yield frame[:i] + frame[j:]


def _length_lies(frame: bytes) -> Iterator[bytes]:
    """The length field rewritten to anything but the true payload length."""
    for announced in (0, 1, len(frame) - HEADER_LEN + 1, (1 << 32) - 1):
        if announced == len(frame) - HEADER_LEN:
            continue
        mutated = bytearray(frame)
        mutated[12:16] = announced.to_bytes(4, "big")
        yield bytes(mutated)


def _width_lies(frame: bytes) -> Iterator[bytes]:
    """Consistent frames one payload byte short or long, length field patched."""
    for payload in (frame[HEADER_LEN:-1], frame[HEADER_LEN:] + b"\x00"):
        patched = bytearray(frame[:HEADER_LEN] + payload)
        patched[12:16] = len(payload).to_bytes(4, "big")
        yield bytes(patched)


def _every_case(name: str, frame: bytes) -> Iterator[bytes]:
    """The valid frame and every blob the fuzzer derives from it."""
    yield frame
    yield from _garbage(name, frame)
    yield from _truncations(frame)
    yield from _header_mutations(frame)
    yield from _splices(name, frame)
    yield from _length_lies(frame)
    yield from _width_lies(frame)


@pytest.mark.parametrize("name", PROTOCOLS)
class TestFuzzedFrames:
    def test_random_garbage(self, name: str) -> None:
        codec, frame = _codec_and_frame(name)
        for blob in _garbage(name, frame):
            _decode_strict(codec, blob)

    def test_truncations_every_length(self, name: str) -> None:
        codec, frame = _codec_and_frame(name)
        for blob in _truncations(frame):
            with pytest.raises(WireDecodeError):
                codec.decode(blob)

    def test_single_byte_mutations_of_header(self, name: str) -> None:
        codec, frame = _codec_and_frame(name)
        for blob in _header_mutations(frame):
            _decode_strict(codec, blob)

    def test_random_splices(self, name: str) -> None:
        """Cut-and-paste of two valid frames at random offsets."""
        codec, frame = _codec_and_frame(name)
        for blob in _splices(name, frame):
            _decode_strict(codec, blob)

    def test_length_field_lies(self, name: str) -> None:
        codec, frame = _codec_and_frame(name)
        for blob in _length_lies(frame):
            with pytest.raises(WireDecodeError):
                codec.decode(blob)


def _two_step(codec, frame) -> PartialStateRecord:
    """The reference decode: :func:`decode_frame`, the protocol-id check,
    then :meth:`~repro.wire.codec.PSRCodec.decode_payload`."""
    header, payload = decode_frame(frame)
    if header.protocol_id != codec.protocol_id:
        raise FrameProtocolIdError(f"protocol id {header.protocol_id}")
    return codec.decode_payload(payload, header.epoch)


def _outcome(decode, frame) -> object:
    try:
        return decode(frame)
    except WireDecodeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", ["sies", "cmt"])
def test_one_parse_decode_matches_the_two_step_reference(name: str) -> None:
    """The fixed-width codecs' one-unpack decode against the two-step path,
    on every case the fuzzer generates and every buffer type: an equal
    record, or the same exception class."""
    codec, frame = _codec_and_frame(name)
    outcomes: Counter[str] = Counter()
    for blob in _every_case(name, frame):
        for buffer in (blob, bytearray(blob), memoryview(blob)):
            expected = _outcome(lambda f: _two_step(codec, f), buffer)
            got = _outcome(codec.decode, buffer)
            assert got == expected, f"{blob.hex()}: {got!r} != {expected!r}"
            outcomes[expected.__name__ if isinstance(expected, type) else "record"] += 1
    # The cases reach every check of the reference path, and the record.
    assert set(outcomes) == {
        "record",
        "FrameTruncatedError",
        "FrameMagicError",
        "FrameVersionError",
        "FrameLengthError",
        "FrameProtocolIdError",
        "PayloadFormatError",
    }, outcomes


class TestPayloadShapes:
    """Protocol-specific malformed payloads hit PayloadFormatError."""

    def test_secoa_unknown_flag(self) -> None:
        codec, frame = _codec_and_frame("secoa_s")
        mutated = bytearray(frame)
        mutated[HEADER_LEN] = 0x7F  # flags byte: only 0x00/0x01 defined
        with pytest.raises(PayloadFormatError):
            codec.decode(bytes(mutated))

    def test_secoa_seal_count_overclaims(self) -> None:
        codec, frame = _codec_and_frame("secoa_s")
        mutated = bytearray(frame)
        offset = HEADER_LEN + 1 + 3 + 3 * 4  # flags + levels + winners
        mutated[offset : offset + 2] = (999).to_bytes(2, "big")
        with pytest.raises(PayloadFormatError):
            codec.decode(bytes(mutated))

    def test_sies_wrong_width(self) -> None:
        codec, frame = _codec_and_frame("sies")
        for patched in _width_lies(frame):
            with pytest.raises(PayloadFormatError):
                codec.decode(patched)

    def test_commit_attest_trailing_bytes(self) -> None:
        codec, frame = _codec_and_frame("commit_attest")
        extended = frame + b"\x00"
        patched = bytearray(extended)
        patched[12:16] = (len(extended) - HEADER_LEN).to_bytes(4, "big")
        with pytest.raises(PayloadFormatError):
            codec.decode(bytes(patched))

    def test_decode_never_raises_broad(self) -> None:
        """The channel drop path catches WireDecodeError and nothing else."""
        import inspect

        from repro.network import channel

        source = inspect.getsource(channel)
        assert "except Exception" not in source
        assert "except BaseException" not in source
