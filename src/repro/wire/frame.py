"""The versioned, self-describing frame that carries every PSR.

Every message a simulator transmits is one *frame*::

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     2  magic        b"\\x9aS"  (0x9A 0x53, "SIES wire")
         2     1  version      wire-format version, currently 1
         3     1  protocol id  which codec parses the payload
         4     8  epoch        big-endian unsigned epoch header
        12     4  payload len  big-endian unsigned payload byte count
        16     …  payload      codec-specific PSR serialization

The 16-byte header is deliberately *plaintext metadata*: like the
``epoch`` attribute on :class:`~repro.protocols.base.PartialStateRecord`
it is attacker-controlled, and no protocol derives security from it
(SIES derives freshness from the shares, Theorem 4).  Its job is
framing: a receiver can classify, route, and length-check a frame
without touching the payload.

Versioning rules (see ``docs/wire_format.md``):

* the magic and the header layout never change;
* a payload-layout change bumps ``WIRE_VERSION``;
* decoders reject versions they do not speak with
  :class:`~repro.errors.FrameVersionError` — there is no silent
  best-effort parsing of foreign versions.

The header is one precompiled :class:`struct.Struct` layout
(``>2sBBQI``): :func:`encode_frame` packs it, :func:`decode_header`
unpacks it in place from ``bytes``, ``bytearray`` or ``memoryview``
input, and :func:`decode_frame` copies the payload exactly once.  The
checks run in a fixed order: magic, version, length, then (in
:meth:`~repro.wire.codec.PSRCodec.decode`) protocol id.
:func:`fixed_frame_layout` extends the layout by a fixed-width payload,
for the codecs that read a whole frame in one unpack.

Decoding never asserts and never raises anything outside the
:class:`~repro.errors.WireDecodeError` hierarchy for malformed input.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import (
    FrameLengthError,
    FrameMagicError,
    FrameTruncatedError,
    FrameVersionError,
    WireEncodeError,
)

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER_LEN",
    "MAX_PAYLOAD_LEN",
    "FrameHeader",
    "encode_frame",
    "decode_header",
    "decode_frame",
    "fixed_frame_layout",
]

#: Two fixed bytes opening every frame.
MAGIC = b"\x9aS"
#: Current wire-format version (bumped on any payload-layout change).
WIRE_VERSION = 1
#: Fixed header size: magic(2) + version(1) + protocol id(1) + epoch(8) + length(4).
HEADER_LEN = 16
#: Upper bound accepted for the payload-length field (4-byte unsigned).
MAX_PAYLOAD_LEN = (1 << 32) - 1

#: The whole fixed header: magic, version, protocol id, epoch, payload length.
_HEADER = struct.Struct(">2sBBQI")


class FrameHeader(NamedTuple):
    """The parsed fixed header of one frame (immutable)."""

    version: int
    protocol_id: int
    epoch: int
    payload_len: int

    @property
    def total_len(self) -> int:
        """Complete frame length this header announces (header + payload)."""
        return HEADER_LEN + self.payload_len


def encode_frame(protocol_id: int, epoch: int, payload: bytes) -> bytes:
    """Assemble a frame from its parts (the codec layer's exit point)."""
    try:
        return _HEADER.pack(MAGIC, WIRE_VERSION, protocol_id, epoch, len(payload)) + payload
    except struct.error as exc:
        if not 0 <= protocol_id <= 0xFF:
            reason = f"protocol id {protocol_id} does not fit the 1-byte field"
        elif not 0 <= epoch < 1 << 64:
            reason = f"epoch {epoch} does not fit the 8-byte header field"
        elif len(payload) > MAX_PAYLOAD_LEN:
            reason = f"payload of {len(payload)} bytes exceeds the 4-byte length field"
        else:
            reason = f"frame header does not pack: {exc}"
        raise WireEncodeError(reason) from None


def fixed_frame_layout(payload_len: int) -> struct.Struct:
    """The header and a *payload_len*-byte payload as one ``struct`` layout.

    For codecs whose every frame has one length
    (:attr:`~repro.wire.codec.PSRCodec.fixed_layout`): a single unpack
    yields magic, version, protocol id, epoch, length field and payload
    bytes.
    """
    return struct.Struct(_HEADER.format + f"{payload_len}s")


def decode_header(frame: bytes | bytearray | memoryview) -> FrameHeader:
    """Parse and validate the fixed header in place (payload not inspected)."""
    try:
        magic, version, protocol_id, epoch, payload_len = _HEADER.unpack_from(frame)
    except struct.error:
        raise FrameTruncatedError(
            f"frame of {memoryview(frame).nbytes} bytes is shorter than the "
            f"{HEADER_LEN}-byte header"
        ) from None
    except (TypeError, BufferError):
        raise FrameTruncatedError(
            f"frame must be a contiguous byte buffer, got {type(frame).__name__}"
        ) from None
    if magic != MAGIC:
        raise FrameMagicError(f"bad magic {magic!r}; expected {MAGIC!r}")
    if version != WIRE_VERSION:
        raise FrameVersionError(f"unsupported wire version {version}; this build speaks {WIRE_VERSION}")
    # tuple.__new__ skips the named tuple's Python-level constructor.
    return tuple.__new__(FrameHeader, (version, protocol_id, epoch, payload_len))


def decode_frame(frame: bytes | bytearray | memoryview) -> tuple[FrameHeader, bytes]:
    """Split a frame into its validated header and exact payload bytes.

    The length field must account for every byte after the header —
    both truncation and trailing garbage raise
    :class:`~repro.errors.FrameLengthError` (a frame is not allowed to
    smuggle unaccounted bytes past the counters).  The payload is the
    one copy made, and always ``bytes``.
    """
    header = decode_header(frame)
    if type(frame) is not bytes:
        frame = memoryview(frame).cast("B")  # byte offsets on any buffer, no copy
    present = len(frame) - HEADER_LEN
    if header.payload_len != present:
        raise FrameLengthError(
            f"header announces {header.payload_len} payload bytes but {present} are present"
        )
    return header, bytes(frame[HEADER_LEN:])
