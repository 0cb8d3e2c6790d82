"""Cluster hop envelopes: the per-hop transport metadata around a PSR.

In the in-process runtimes the manifest of contributing sources and the
ACK signal travel out-of-band as Python arguments.  Over real sockets
they must be bytes, so the cluster defines two control frames that use
the *same* 16-byte header format as every PSR frame (ids pinned in
:mod:`repro.protocols.registry`, so they can never collide with a
protocol codec):

``cluster/data`` (id 240) — one application send across one hop::

    offset  size  field
    ------  ----  ---------------------------------------------------
         0     4  sender node id        (big-endian unsigned)
         4     8  parcel uid            (big-endian unsigned)
        12     1  attempt               (0-based ARQ attempt counter)
        13     4  manifest count M      (big-endian unsigned)
        17   4*M  manifest source ids   (sorted ascending, unsigned)
     17+4M     …  inner PSR frame       (verbatim protocol frame bytes)

``cluster/ack`` (id 241) — the transport acknowledgement::

    offset  size  field
    ------  ----  ---------------------------------------------------
         0     8  parcel uid
         8     1  attempt being acknowledged

The inner PSR frame is carried **verbatim** and is byte-identical across
retransmissions (the ARQ encodes once per parcel, exactly like
:class:`repro.runtime.transport.Parcel`); only the envelope's 1-byte
attempt counter changes per retry — the moral equivalent of a MAC-layer
retry flag.  The attempt counter keys the deterministic fault schedule
(:class:`repro.runtime.faults.KeyedFaultInjector`); like every frame
header field it is plaintext transport metadata, and no protocol derives
security from it.

Decoding raises only the typed :class:`~repro.errors.WireDecodeError`
family.  The inner frame bytes are *not* validated here: a corrupted
inner frame must still be deliverable so the receiving node can count
it as a decode failure (nothing is silently dropped).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrameProtocolIdError, PayloadFormatError, WireEncodeError
from repro.protocols.registry import register_wire_protocol_id
from repro.wire.frame import decode_frame, encode_frame

__all__ = [
    "CLUSTER_DATA_WIRE_ID",
    "CLUSTER_ACK_WIRE_ID",
    "DataEnvelope",
    "AckEnvelope",
    "encode_data",
    "encode_ack",
    "decode_envelope",
]

#: Frame-header ids for the cluster control plane (registered alongside
#: the protocol codec ids; high values leave room for future protocols).
CLUSTER_DATA_WIRE_ID = register_wire_protocol_id("cluster/data", 240)
CLUSTER_ACK_WIRE_ID = register_wire_protocol_id("cluster/ack", 241)

_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1
#: Manifest entries accepted per envelope (well above any supported N,
#: well below an allocation hazard).
MAX_MANIFEST = 1 << 20

#: sender(4) + uid(8) + attempt(1) + manifest count(4).
_DATA_FIXED = 17
#: uid(8) + attempt(1).
_ACK_LEN = 9


@dataclass(frozen=True)
class DataEnvelope:
    """A decoded ``cluster/data`` frame."""

    epoch: int
    sender: int
    uid: int
    attempt: int
    manifest: frozenset[int]
    #: The embedded protocol frame, verbatim (possibly corrupted bytes —
    #: the receiving role decodes and accounts for it).
    inner: bytes


@dataclass(frozen=True)
class AckEnvelope:
    """A decoded ``cluster/ack`` frame."""

    epoch: int
    uid: int
    attempt: int


def _check_u32(name: str, value: int) -> int:
    if not 0 <= value <= _U32_MAX:
        raise WireEncodeError(f"{name} {value} does not fit the 4-byte field")
    return value


def encode_data(
    *,
    epoch: int,
    sender: int,
    uid: int,
    attempt: int,
    manifest: frozenset[int],
    inner: bytes,
) -> bytes:
    """Assemble one ``cluster/data`` frame."""
    _check_u32("sender", sender)
    if not 0 <= uid <= _U64_MAX:
        raise WireEncodeError(f"uid {uid} does not fit the 8-byte field")
    if not 0 <= attempt <= 0xFF:
        raise WireEncodeError(f"attempt {attempt} does not fit the 1-byte field")
    if len(manifest) > MAX_MANIFEST:
        raise WireEncodeError(
            f"manifest of {len(manifest)} ids exceeds the {MAX_MANIFEST} cap"
        )
    ids = sorted(manifest)
    for sid in ids:
        _check_u32("manifest id", sid)
    payload = (
        sender.to_bytes(4, "big")
        + uid.to_bytes(8, "big")
        + bytes((attempt,))
        + len(ids).to_bytes(4, "big")
        + b"".join(sid.to_bytes(4, "big") for sid in ids)
        + inner
    )
    return encode_frame(CLUSTER_DATA_WIRE_ID, epoch, payload)


def encode_ack(*, epoch: int, uid: int, attempt: int) -> bytes:
    """Assemble one ``cluster/ack`` frame."""
    if not 0 <= uid <= _U64_MAX:
        raise WireEncodeError(f"uid {uid} does not fit the 8-byte field")
    if not 0 <= attempt <= 0xFF:
        raise WireEncodeError(f"attempt {attempt} does not fit the 1-byte field")
    payload = uid.to_bytes(8, "big") + bytes((attempt,))
    return encode_frame(CLUSTER_ACK_WIRE_ID, epoch, payload)


def _decode_data_payload(epoch: int, payload: bytes) -> DataEnvelope:
    if len(payload) < _DATA_FIXED:
        raise PayloadFormatError(
            f"cluster/data payload of {len(payload)} bytes is shorter than the "
            f"{_DATA_FIXED}-byte fixed part"
        )
    sender = int.from_bytes(payload[0:4], "big")
    uid = int.from_bytes(payload[4:12], "big")
    attempt = payload[12]
    count = int.from_bytes(payload[13:17], "big")
    if count > MAX_MANIFEST:
        raise PayloadFormatError(
            f"cluster/data announces {count} manifest ids, over the {MAX_MANIFEST} cap"
        )
    end = _DATA_FIXED + 4 * count
    if len(payload) < end:
        raise PayloadFormatError(
            f"cluster/data announces {count} manifest ids but only "
            f"{len(payload) - _DATA_FIXED} bytes follow"
        )
    ids = [int.from_bytes(payload[off : off + 4], "big") for off in range(_DATA_FIXED, end, 4)]
    manifest = frozenset(ids)
    if len(manifest) != count:
        raise PayloadFormatError("cluster/data manifest contains duplicate source ids")
    return DataEnvelope(
        epoch=epoch,
        sender=sender,
        uid=uid,
        attempt=attempt,
        manifest=manifest,
        inner=payload[end:],
    )


def _decode_ack_payload(epoch: int, payload: bytes) -> AckEnvelope:
    if len(payload) != _ACK_LEN:
        raise PayloadFormatError(
            f"cluster/ack payload must be {_ACK_LEN} bytes, got {len(payload)}"
        )
    return AckEnvelope(
        epoch=epoch,
        uid=int.from_bytes(payload[0:8], "big"),
        attempt=payload[8],
    )


def decode_envelope(frame: bytes) -> DataEnvelope | AckEnvelope:
    """Parse one cluster control frame (data or ack)."""
    header, payload = decode_frame(frame)
    if header.protocol_id == CLUSTER_DATA_WIRE_ID:
        return _decode_data_payload(header.epoch, payload)
    if header.protocol_id == CLUSTER_ACK_WIRE_ID:
        return _decode_ack_payload(header.epoch, payload)
    raise FrameProtocolIdError(
        f"frame carries protocol id {header.protocol_id}, not a cluster "
        f"envelope ({CLUSTER_DATA_WIRE_ID} or {CLUSTER_ACK_WIRE_ID})"
    )
