"""Concrete byte codecs for every built-in PSR.

Payload layouts (all integers big-endian, unsigned; full frame layout
and rationale in ``docs/wire_format.md``):

* **SIES** (id 1) — the ciphertext residue, exactly ``|p|`` bytes.
* **CMT** (id 2) — the ciphertext residue, exactly ``|n|`` = 20 bytes.
  Both frames have one fixed length, which these two codecs declare, so
  :meth:`~repro.wire.codec.PSRCodec.decode` reads each in one ``struct``
  unpack (``docs/wire_format.md``).
* **SECOA_S** (id 3) —
  ``flags(1) ‖ levels(J×1) ‖ winners(J×4) ‖ seal_count(2) ‖
  seals(count × [position(2) ‖ value(|n_RSA|)]) ‖ certificates``
  where ``certificates`` is the single 20-byte XOR aggregate on a
  finalized (A–Q) record, or ``J`` 20-byte winner MACs on an internal
  one.  Winner ids, positions, the flag and the extra internal MACs are
  structural metadata the ICDE model does not count — the codec reports
  them as :meth:`~repro.wire.codec.PSRCodec.payload_overhead`.
* **SECOA_M** (id 4) —
  ``value(4) ‖ winner(4) ‖ certificate(20) ‖ position(2) ‖ seal(|n_RSA|)``
  (winner id and position are the 6 overhead bytes).
* **commit-attest** (id 5) — one commitment label:
  ``sum(4) ‖ count(4) ‖ digest(32)`` = the paper-family's 40-byte label,
  overhead 0.  A partial sum that no longer fits the 4-byte field is a
  :class:`~repro.errors.WireEncodeError` (the format's capacity bound).

Decoding is strict: every length is checked before slicing, unknown
flags are rejected, and nothing outside the
:class:`~repro.errors.WireDecodeError` family can escape — malformed
bytes never become a crash or a silent misparse.  No pickling, no
``eval``: every field is fixed-width binary (sieslint SL006 enforces
this for all deserialization paths).
"""

from __future__ import annotations

from repro.baselines.cmt import CMTRecord
from repro.baselines.commit_attest import LABEL_BYTES, CommitLabelRecord, CommitmentNode
from repro.baselines.secoa.seal import Seal
from repro.baselines.secoa.secoa_max import SECOAMaxRecord
from repro.baselines.secoa.secoa_sum import CERTIFICATE_BYTES, SECOASumRecord
from repro.core.source import SIESRecord
from repro.errors import PayloadFormatError, WireEncodeError
from repro.protocols.base import PartialStateRecord
from repro.protocols.registry import register_wire_protocol_id
from repro.wire.codec import PSRCodec
from repro.wire.frame import fixed_frame_layout

__all__ = [
    "SIESCodec",
    "CMTCodec",
    "SECOASumCodec",
    "SECOAMaxCodec",
    "CommitAttestCodec",
]

_WINNER_BYTES = 4
_POSITION_BYTES = 2
_SEAL_COUNT_BYTES = 2
_FLAG_FINALIZED = 0x01


def _expect_type(psr: PartialStateRecord, kind: type, codec: str) -> None:
    if not isinstance(psr, kind):
        raise WireEncodeError(
            f"{codec} codec cannot serialize foreign PSR {type(psr).__name__}"
        )


def _encode_residue(name: str, ciphertext: int, width: int) -> bytes:
    if ciphertext < 0:
        raise WireEncodeError(f"{name} ciphertext must be non-negative, got {ciphertext}")
    try:
        return ciphertext.to_bytes(width, "big")
    except OverflowError:
        raise WireEncodeError(
            f"{name} ciphertext needs {ciphertext.bit_length()} bits but the "
            f"wire field has {width} bytes"
        ) from None


class SIESCodec(PSRCodec):
    """Fixed-width residue codec for :class:`~repro.core.source.SIESRecord`."""

    protocol_id = register_wire_protocol_id("sies", 1)
    protocol_name = "sies"

    def __init__(self, modulus_bytes: int) -> None:
        if modulus_bytes <= 0:
            raise WireEncodeError(f"modulus_bytes must be positive, got {modulus_bytes}")
        self.modulus_bytes = modulus_bytes
        self.fixed_layout = fixed_frame_layout(modulus_bytes)

    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        _expect_type(psr, SIESRecord, "SIES")
        if psr.modulus_bytes != self.modulus_bytes:
            raise WireEncodeError(
                f"record was built for a {psr.modulus_bytes}-byte modulus; "
                f"this codec frames {self.modulus_bytes}-byte residues"
            )
        return _encode_residue("SIES", psr.ciphertext, self.modulus_bytes)

    def decode_payload(self, payload: bytes, epoch: int) -> SIESRecord:
        if len(payload) != self.modulus_bytes:
            raise PayloadFormatError(
                f"SIES payload must be exactly {self.modulus_bytes} bytes, got {len(payload)}"
            )
        return SIESRecord(int.from_bytes(payload, "big"), epoch, self.modulus_bytes)


class CMTCodec(PSRCodec):
    """Fixed-width residue codec for :class:`~repro.baselines.cmt.CMTRecord`."""

    protocol_id = register_wire_protocol_id("cmt", 2)
    protocol_name = "cmt"

    def __init__(self, modulus_bytes: int) -> None:
        if modulus_bytes <= 0:
            raise WireEncodeError(f"modulus_bytes must be positive, got {modulus_bytes}")
        self.modulus_bytes = modulus_bytes
        self.fixed_layout = fixed_frame_layout(modulus_bytes)

    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        _expect_type(psr, CMTRecord, "CMT")
        if psr.modulus_bytes != self.modulus_bytes:
            raise WireEncodeError(
                f"record was built for a {psr.modulus_bytes}-byte modulus; "
                f"this codec frames {self.modulus_bytes}-byte residues"
            )
        return _encode_residue("CMT", psr.ciphertext, self.modulus_bytes)

    def decode_payload(self, payload: bytes, epoch: int) -> CMTRecord:
        if len(payload) != self.modulus_bytes:
            raise PayloadFormatError(
                f"CMT payload must be exactly {self.modulus_bytes} bytes, got {len(payload)}"
            )
        return CMTRecord(
            ciphertext=int.from_bytes(payload, "big"),
            epoch=epoch,
            modulus_bytes=self.modulus_bytes,
        )


class SECOASumCodec(PSRCodec):
    """Codec for :class:`~repro.baselines.secoa.secoa_sum.SECOASumRecord`."""

    protocol_id = register_wire_protocol_id("secoa_s", 3)
    protocol_name = "secoa_s"

    def __init__(self, num_sketches: int, seal_bytes: int) -> None:
        if num_sketches <= 0:
            raise WireEncodeError(f"num_sketches must be positive, got {num_sketches}")
        if seal_bytes <= 0:
            raise WireEncodeError(f"seal_bytes must be positive, got {seal_bytes}")
        self.num_sketches = num_sketches
        self.seal_bytes = seal_bytes

    # -- sizes ----------------------------------------------------------

    def payload_overhead(self, psr: PartialStateRecord) -> int:
        """Structural metadata beyond the ICDE model's byte count.

        flag + winner ids + SEAL count/positions always; internal
        records additionally carry ``J`` winner MACs where the model
        counts one certificate (DESIGN.md §5).
        """
        _expect_type(psr, SECOASumRecord, "SECOA_S")
        j = len(psr.levels)
        overhead = 1 + j * _WINNER_BYTES + _SEAL_COUNT_BYTES + len(psr.seals) * _POSITION_BYTES
        if psr.winner_certificates is not None:
            overhead += (j - 1) * CERTIFICATE_BYTES
        return overhead

    # -- encode ---------------------------------------------------------

    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        _expect_type(psr, SECOASumRecord, "SECOA_S")
        j = len(psr.levels)
        if j != self.num_sketches:
            raise WireEncodeError(
                f"record carries {j} sketches; this codec frames {self.num_sketches}"
            )
        if len(psr.winners) != j:
            raise WireEncodeError(f"{len(psr.winners)} winner ids for {j} sketches")
        if psr.seal_bytes != self.seal_bytes:
            raise WireEncodeError(
                f"record SEAL width {psr.seal_bytes} != codec SEAL width {self.seal_bytes}"
            )
        finalized = psr.winner_certificates is None
        if finalized and psr.certificate is None:
            raise WireEncodeError("finalized SECOA_S record lacks its aggregate certificate")
        if len(psr.seals) > (1 << (8 * _SEAL_COUNT_BYTES)) - 1:
            raise WireEncodeError(f"{len(psr.seals)} SEALs exceed the 2-byte count field")

        parts = [bytes([_FLAG_FINALIZED if finalized else 0])]
        parts.append(bytes(self._checked_level(level) for level in psr.levels))
        for winner in psr.winners:
            parts.append(self._checked_uint("winner id", winner, _WINNER_BYTES))
        parts.append(len(psr.seals).to_bytes(_SEAL_COUNT_BYTES, "big"))
        for seal in psr.seals:
            parts.append(self._checked_uint("SEAL position", seal.position, _POSITION_BYTES))
            parts.append(self._checked_uint("SEAL value", seal.value, self.seal_bytes))
        if finalized:
            parts.append(self._checked_mac("aggregate certificate", psr.certificate))
        else:
            certificates = psr.winner_certificates or []
            if len(certificates) != j:
                raise WireEncodeError(f"{len(certificates)} winner MACs for {j} sketches")
            for certificate in certificates:
                parts.append(self._checked_mac("winner certificate", certificate))
        return b"".join(parts)

    @staticmethod
    def _checked_level(level: int) -> int:
        if not 0 <= level <= 0xFF:
            raise WireEncodeError(
                f"sketch level {level} does not fit the paper's 1-byte sketch-value field"
            )
        return level

    @staticmethod
    def _checked_uint(name: str, value: int, width: int) -> bytes:
        if value < 0:
            raise WireEncodeError(f"{name} must be non-negative, got {value}")
        try:
            return value.to_bytes(width, "big")
        except OverflowError:
            raise WireEncodeError(
                f"{name} needs {value.bit_length()} bits but the wire field has {width} bytes"
            ) from None

    @staticmethod
    def _checked_mac(name: str, mac: bytes | None) -> bytes:
        if mac is None or len(mac) != CERTIFICATE_BYTES:
            got = "absent" if mac is None else f"{len(mac)} bytes"
            raise WireEncodeError(f"{name} must be {CERTIFICATE_BYTES} bytes, {got}")
        return mac

    # -- decode ---------------------------------------------------------

    def decode_payload(self, payload: bytes, epoch: int) -> SECOASumRecord:
        j = self.num_sketches
        cursor = _Cursor(payload, "SECOA_S")
        flags = cursor.take(1)[0]
        if flags not in (0, _FLAG_FINALIZED):
            raise PayloadFormatError(f"unknown SECOA_S flag byte 0x{flags:02x}")
        finalized = bool(flags & _FLAG_FINALIZED)
        levels = list(cursor.take(j))
        winners = [
            int.from_bytes(cursor.take(_WINNER_BYTES), "big") for _ in range(j)
        ]
        seal_count = int.from_bytes(cursor.take(_SEAL_COUNT_BYTES), "big")
        seals = []
        for _ in range(seal_count):
            position = int.from_bytes(cursor.take(_POSITION_BYTES), "big")
            value = int.from_bytes(cursor.take(self.seal_bytes), "big")
            seals.append(Seal(position=position, value=value))
        certificate: bytes | None = None
        winner_certificates: list[bytes] | None = None
        if finalized:
            certificate = cursor.take(CERTIFICATE_BYTES)
        else:
            winner_certificates = [cursor.take(CERTIFICATE_BYTES) for _ in range(j)]
        cursor.expect_exhausted()
        return SECOASumRecord(
            epoch=epoch,
            levels=levels,
            winners=winners,
            seals=seals,
            seal_bytes=self.seal_bytes,
            winner_certificates=winner_certificates,
            certificate=certificate,
        )


class SECOAMaxCodec(PSRCodec):
    """Codec for :class:`~repro.baselines.secoa.secoa_max.SECOAMaxRecord`."""

    protocol_id = register_wire_protocol_id("secoa_m", 4)
    protocol_name = "secoa_m"

    _VALUE_BYTES = 4

    def __init__(self, seal_bytes: int) -> None:
        if seal_bytes <= 0:
            raise WireEncodeError(f"seal_bytes must be positive, got {seal_bytes}")
        self.seal_bytes = seal_bytes

    def payload_overhead(self, psr: PartialStateRecord) -> int:
        """Winner id (4) + SEAL chain position (2) — uncounted by the model."""
        _expect_type(psr, SECOAMaxRecord, "SECOA_M")
        return _WINNER_BYTES + _POSITION_BYTES

    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        _expect_type(psr, SECOAMaxRecord, "SECOA_M")
        if psr.seal_bytes != self.seal_bytes:
            raise WireEncodeError(
                f"record SEAL width {psr.seal_bytes} != codec SEAL width {self.seal_bytes}"
            )
        return b"".join(
            (
                SECOASumCodec._checked_uint("MAX value", psr.value, self._VALUE_BYTES),
                SECOASumCodec._checked_uint("winner id", psr.winner, _WINNER_BYTES),
                SECOASumCodec._checked_mac("inflation certificate", psr.certificate),
                SECOASumCodec._checked_uint("SEAL position", psr.seal.position, _POSITION_BYTES),
                SECOASumCodec._checked_uint("SEAL value", psr.seal.value, self.seal_bytes),
            )
        )

    def decode_payload(self, payload: bytes, epoch: int) -> SECOAMaxRecord:
        cursor = _Cursor(payload, "SECOA_M")
        value = int.from_bytes(cursor.take(self._VALUE_BYTES), "big")
        winner = int.from_bytes(cursor.take(_WINNER_BYTES), "big")
        certificate = cursor.take(CERTIFICATE_BYTES)
        position = int.from_bytes(cursor.take(_POSITION_BYTES), "big")
        seal_value = int.from_bytes(cursor.take(self.seal_bytes), "big")
        cursor.expect_exhausted()
        return SECOAMaxRecord(
            epoch=epoch,
            value=value,
            winner=winner,
            certificate=certificate,
            seal=Seal(position=position, value=seal_value),
            seal_bytes=self.seal_bytes,
        )


class CommitAttestCodec(PSRCodec):
    """Codec for commit-attest's 40-byte commitment labels."""

    protocol_id = register_wire_protocol_id("commit_attest", 5)
    protocol_name = "commit_attest"

    _SUM_BYTES = 4
    _COUNT_BYTES = 4
    _DIGEST_BYTES = LABEL_BYTES - _SUM_BYTES - _COUNT_BYTES

    def encode_payload(self, psr: PartialStateRecord) -> bytes:
        _expect_type(psr, CommitLabelRecord, "commit-attest")
        node = psr.node
        if len(node.digest) != self._DIGEST_BYTES:
            raise WireEncodeError(
                f"label digest must be {self._DIGEST_BYTES} bytes, got {len(node.digest)}"
            )
        return b"".join(
            (
                SECOASumCodec._checked_uint("partial sum", node.total, self._SUM_BYTES),
                SECOASumCodec._checked_uint("leaf count", node.count, self._COUNT_BYTES),
                node.digest,
            )
        )

    def decode_payload(self, payload: bytes, epoch: int) -> CommitLabelRecord:
        if len(payload) != LABEL_BYTES:
            raise PayloadFormatError(
                f"commit-attest label must be exactly {LABEL_BYTES} bytes, got {len(payload)}"
            )
        cursor = _Cursor(payload, "commit-attest")
        total = int.from_bytes(cursor.take(self._SUM_BYTES), "big")
        count = int.from_bytes(cursor.take(self._COUNT_BYTES), "big")
        digest = cursor.take(self._DIGEST_BYTES)
        cursor.expect_exhausted()
        return CommitLabelRecord(
            node=CommitmentNode(total=total, count=count, digest=digest), epoch=epoch
        )


class _Cursor:
    """Strict sequential reader: every take is length-checked up front."""

    def __init__(self, payload: bytes, codec: str) -> None:
        self._payload = payload
        self._offset = 0
        self._codec = codec

    def take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._payload):
            raise PayloadFormatError(
                f"{self._codec} payload truncated: field at offset {self._offset} "
                f"needs {count} bytes, {len(self._payload) - self._offset} remain"
            )
        chunk = self._payload[self._offset : end]
        self._offset = end
        return chunk

    def expect_exhausted(self) -> None:
        remaining = len(self._payload) - self._offset
        if remaining:
            raise PayloadFormatError(
                f"{self._codec} payload carries {remaining} unaccounted trailing bytes"
            )
