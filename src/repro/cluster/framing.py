"""Length-delimited stream framing for the 16-byte-header wire frames.

TCP is a byte stream: a single ``read()`` may return half a frame, three
frames, or one frame plus the header of the next.
:class:`FrameAssembler` reassembles the :mod:`repro.wire.frame` format
from arbitrary chunk boundaries: feed it byte chunks, get back complete
frames.  It is pure and synchronous, property-tested against splits at
*every* byte boundary (``tests/cluster/test_framing.py``); each cluster
connection (:mod:`repro.cluster.node`) feeds one from its
``data_received`` and calls :meth:`FrameAssembler.finish` at EOF.

Malformed input raises *only* the typed
:class:`~repro.errors.WireDecodeError` family — never ``ValueError``,
never ``assert`` (the contract also holds under ``python -O``; see
``tests/test_optimized_mode.py``).  The header is validated as soon as
its 16 bytes are buffered, so a frame announcing an oversized payload is
rejected **before** any payload is accumulated — the max-frame guard
bounds memory per connection at ``HEADER_LEN + max_payload`` bytes.
"""

from __future__ import annotations

from repro.errors import FrameLengthError, FrameTruncatedError, WireDecodeError, WireEncodeError
from repro.wire.frame import HEADER_LEN, decode_header

__all__ = ["DEFAULT_MAX_PAYLOAD", "FrameAssembler"]

#: Default per-frame payload cap for cluster streams.  Generous next to
#: any real PSR/envelope (a 64-source SIES envelope is ~350 bytes) while
#: keeping a malicious or corrupted length field from ballooning the
#: reassembly buffer.
DEFAULT_MAX_PAYLOAD = 1 << 20


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
                header = decode_header(self._buffer)  # in place: no copy
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
            # One copy: a view of the buffer, released before the buffer shrinks.
            with memoryview(self._buffer) as view:
                frames.append(bytes(view[: header.total_len]))
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

