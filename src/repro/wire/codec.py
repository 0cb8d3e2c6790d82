"""The abstract PSR codec: byte-exact serialization for one protocol.

A codec is bound to one *protocol instance* — it carries the framing
parameters (modulus width, sketch count, SEAL width…) that the paper's
setup phase distributes to every party, so the payload does not have to
repeat them in every frame.  Protocol facades hand their codec out via
:meth:`repro.protocols.base.SecureAggregationProtocol.wire_codec`, and
the numeric ids that name codecs inside the frame header live in
:mod:`repro.protocols.registry` next to the protocol-name registry.

The size contract, enforced on every encode:

    ``len(encode(psr)) == HEADER_LEN + psr.wire_size() + payload_overhead(psr)``

``payload_overhead`` is 0 for SIES, CMT and commit-attest — their
analytic ``wire_size()`` is byte-exact.  SECOA's codecs carry a small
amount of structural metadata (winner ids, SEAL chain positions, and on
internal edges the per-sketch winner MACs) that the ICDE paper's
communication model deliberately does not count; the overhead is an
explicit, audited function, not a fudge factor (DESIGN.md §5,
``docs/wire_format.md``).

:meth:`PSRCodec.decode` is the two-step path: :func:`~repro.wire.frame.decode_frame`,
the protocol-id check, then :meth:`~PSRCodec.decode_payload`.  A codec
whose frames all have one length (SIES, CMT) sets ``fixed_layout``
(:func:`~repro.wire.frame.fixed_frame_layout`), and ``decode`` then
reads a frame in one unpack: the payload goes to ``decode_payload``
only when every check of the two-step path holds, and any other frame
takes the two-step path, which raises its typed error.  A malformed
frame fails with the same exception, in the same check order, either way.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod

from repro.errors import FrameProtocolIdError, WireEncodeError
from repro.protocols.base import PartialStateRecord
from repro.wire.frame import HEADER_LEN, MAGIC, WIRE_VERSION, decode_frame, encode_frame

__all__ = ["PSRCodec"]


class PSRCodec(ABC):
    """Encode/decode one protocol's PSRs to/from byte frames."""

    #: Numeric id written into the frame header (see the registry).
    protocol_id: int
    #: The protocol's registry name, for diagnostics.
    protocol_name: str
    #: Header plus payload as one ``struct`` layout, for a codec whose
    #: frames all have one length; ``None`` for variable-length payloads.
    fixed_layout: struct.Struct | None = None

    # -- payload layer (protocol-specific) ------------------------------

    @abstractmethod
    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        """Serialize *psr* to its payload bytes.

        Raises :class:`~repro.errors.WireEncodeError` when a field does
        not fit the wire layout (caller bug or out-of-domain record).
        """

    @abstractmethod
    def decode_payload(self, payload: bytes, epoch: int) -> PartialStateRecord:
        """Parse payload bytes back into a PSR.

        *epoch* is the (untrusted) frame-header epoch; the decoded
        record carries it as its plaintext epoch attribute.  Malformed
        payloads raise :class:`~repro.errors.PayloadFormatError` —
        never anything outside the ``WireDecodeError`` family.
        """

    def payload_overhead(self, psr: PartialStateRecord) -> int:
        """Payload bytes beyond the analytic ``wire_size()`` (default 0)."""
        return 0

    # -- frame layer (shared) -------------------------------------------

    def encode(self, psr: PartialStateRecord) -> bytes:
        """Serialize *psr* into a complete frame, enforcing the size contract."""
        payload = self.encode_payload(psr)
        expected = psr.wire_size() + self.payload_overhead(psr)
        if len(payload) != expected:
            raise WireEncodeError(
                f"{self.protocol_name} codec produced {len(payload)} payload bytes "
                f"but wire_size()+overhead announces {expected} — analytic size and "
                "wire format have diverged"
            )
        return encode_frame(self.protocol_id, psr.epoch, payload)

    def decode(self, frame: bytes | bytearray | memoryview) -> PartialStateRecord:
        """Parse a complete frame back into a PSR."""
        layout = self.fixed_layout
        if layout is not None:
            try:
                magic, version, protocol_id, epoch, length, payload = layout.unpack(frame)
            except (struct.error, TypeError, BufferError):
                pass  # not one buffer of the fixed length: the two-step path names the fault
            else:
                if (
                    magic == MAGIC
                    and version == WIRE_VERSION
                    and length == layout.size - HEADER_LEN
                    and protocol_id == self.protocol_id
                ):
                    return self.decode_payload(payload, epoch)
        header, payload = decode_frame(frame)
        if header.protocol_id != self.protocol_id:
            raise FrameProtocolIdError(
                f"frame carries protocol id {header.protocol_id}, but this receiver "
                f"speaks {self.protocol_name} (id {self.protocol_id})"
            )
        return self.decode_payload(payload, header.epoch)

    def framed_size(self, psr: PartialStateRecord) -> int:
        """Exact frame length :meth:`encode` will produce for *psr*."""
        return HEADER_LEN + psr.wire_size() + self.payload_overhead(psr)

    def checked_frame_size(self, psr: PartialStateRecord, frame: bytes) -> int:
        """``len(frame)``, checked against :meth:`framed_size` of *psr*.

        The measured-vs-analytic cross-check every sender runs: the bytes
        on the wire must equal the model's size plus the audited framing
        overhead, or :class:`~repro.errors.WireEncodeError` is raised.
        """
        expected = self.framed_size(psr)
        if len(frame) != expected:
            raise WireEncodeError(
                f"{len(frame)}-byte frame for a PSR whose analytic size announces "
                f"{expected} bytes — wire format and model have diverged"
            )
        return expected
