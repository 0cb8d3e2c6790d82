"""Length-delimited stream framing for the 16-byte-header wire frames.

TCP is a byte stream: a single ``read()`` may return half a frame, three
frames, or one frame plus the header of the next.  This module
reassembles the :mod:`repro.wire.frame` format from arbitrary chunk
boundaries:

* :class:`FrameAssembler` — the pure, synchronous core: feed it byte
  chunks, get back complete frames.  Property-tested against splits at
  *every* byte boundary (``tests/cluster/test_framing.py``).
* :class:`FrameReader` — wraps an :class:`asyncio.StreamReader`;
  ``read_frame()`` returns one complete frame, ``None`` on a clean EOF
  at a frame boundary, and raises
  :class:`~repro.errors.FrameTruncatedError` on EOF mid-frame.
* :class:`FrameWriter` — wraps an :class:`asyncio.StreamWriter`; writes
  one validated frame per call, synchronously, and counts bytes.

Malformed input raises *only* the typed
:class:`~repro.errors.WireDecodeError` family — never ``ValueError``,
never ``assert`` (the contract also holds under ``python -O``; see
``tests/test_optimized_mode.py``).  The header is validated as soon as
its 16 bytes are buffered, so a frame announcing an oversized payload is
rejected **before** any payload is accumulated — the max-frame guard
bounds memory per connection at ``HEADER_LEN + max_payload`` bytes.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import FrameLengthError, FrameTruncatedError, SimulationError, WireDecodeError, WireEncodeError
from repro.wire.frame import HEADER_LEN, decode_header

__all__ = ["DEFAULT_MAX_PAYLOAD", "FrameAssembler", "FrameReader", "FrameWriter"]

#: Default per-frame payload cap for cluster streams.  Generous next to
#: any real PSR/envelope (a 64-source SIES envelope is ~350 bytes) while
#: keeping a malicious or corrupted length field from ballooning the
#: reassembly buffer.
DEFAULT_MAX_PAYLOAD = 1 << 20

#: Read granularity of :class:`FrameReader`.
_CHUNK_SIZE = 1 << 16


class FrameAssembler:
    """Incremental reassembly of wire frames from arbitrary byte chunks.

    A hard failure (bad magic, foreign version, oversized payload)
    poisons the assembler: the stream position is no longer trustworthy,
    so every subsequent :meth:`feed` re-raises instead of resynchronizing
    on garbage — exactly how the cluster treats a corrupted connection
    (drop it; the ARQ above recovers).
    """

    def __init__(self, *, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        if max_payload <= 0:
            raise WireEncodeError(f"max_payload must be positive, got {max_payload}")
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._poisoned: WireDecodeError | None = None
        #: Complete frames reassembled so far (monotonic counter).
        self.frames_out = 0
        #: Raw bytes accepted so far (monotonic counter).
        self.bytes_in = 0

    @property
    def buffered(self) -> int:
        """Bytes currently held waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True when the stream may end cleanly right now."""
        return not self._buffer and self._poisoned is None

    def _poison(self, exc: WireDecodeError) -> WireDecodeError:
        self._poisoned = exc
        return exc

    def feed(self, data: bytes) -> list[bytes]:
        """Accept *data* and return every frame completed by it, in order."""
        if self._poisoned is not None:
            raise self._poisoned
        self._buffer += data
        self.bytes_in += len(data)
        frames: list[bytes] = []
        while len(self._buffer) >= HEADER_LEN:
            try:
                header = decode_header(bytes(self._buffer[:HEADER_LEN]))
            except WireDecodeError as exc:
                raise self._poison(exc)
            if header.payload_len > self.max_payload:
                raise self._poison(
                    FrameLengthError(
                        f"frame announces a {header.payload_len}-byte payload, over "
                        f"this stream's {self.max_payload}-byte guard"
                    )
                )
            if len(self._buffer) < header.total_len:
                break
            frames.append(bytes(self._buffer[: header.total_len]))
            del self._buffer[: header.total_len]
            self.frames_out += 1
        return frames

    def finish(self) -> None:
        """Declare EOF; raises if the stream ended inside a frame."""
        if self._poisoned is not None:
            raise self._poisoned
        if self._buffer:
            raise self._poison(
                FrameTruncatedError(
                    f"stream ended mid-frame with {len(self._buffer)} buffered bytes"
                )
            )


class FrameReader:
    """One complete frame at a time off an :class:`asyncio.StreamReader`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        *,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self._reader = reader
        self._assembler = FrameAssembler(max_payload=max_payload)
        self._ready: deque[bytes] = deque()
        self._eof = False
        #: Complete frames handed out (monotonic counter).
        self.frames_read = 0

    async def read_frame(self) -> bytes | None:
        """Next complete frame, or ``None`` on clean EOF at a boundary."""
        while not self._ready:
            if self._eof:
                return None
            chunk = await self._reader.read(_CHUNK_SIZE)
            if not chunk:
                self._eof = True
                self._assembler.finish()
                return None
            self._ready.extend(self._assembler.feed(chunk))
        self.frames_read += 1
        return self._ready.popleft()


class FrameWriter:
    """Writes validated frames to an :class:`asyncio.StreamWriter`."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.frames_written = 0
        self.bytes_written = 0

    def write_frame(self, frame: bytes) -> None:
        """Queue one frame on the transport; never waits.

        The frame is length-checked against its own header first — a
        sender bug that would desynchronize the receiver's framing must
        fail here, loudly, not at the far end.  A closing transport (a
        dead peer) raises :class:`~repro.errors.SimulationError` rather
        than drop the frame; what the socket does not take at once stays
        buffered in the transport.
        """
        header = decode_header(frame)
        if header.total_len != len(frame):
            raise WireEncodeError(
                f"refusing to write a {len(frame)}-byte frame whose header "
                f"announces {header.total_len} bytes"
            )
        if self._writer.transport.is_closing():
            raise SimulationError("refusing to write a frame on a closing connection")
        self._writer.write(frame)
        self.frames_written += 1
        self.bytes_written += len(frame)

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()
