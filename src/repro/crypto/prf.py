"""HMAC-based pseudo-random functions (PRFs).

The paper (Section II-A) assumes its PRFs are implemented as HMACs and
keys them with long-lived secrets: ``K_t = HM256(K, t)``,
``k_i,t = HM256(k_i, t)`` and ``ss_i,t = HM1(k_i, t)``.  :class:`PRF`
packages this pattern: it fixes a key and hash algorithm and evaluates
on *epochs* (encoded as fixed-width big-endian integers) or arbitrary
byte strings, optionally expanding or reducing the output.

The epoch encoding is 8 bytes big-endian, giving a canonical, injective
input for all 64-bit epochs — ambiguity between inputs like ``t=1`` and
``t="1"`` would silently weaken freshness.

Each :class:`PRF` holds the two keyed pad states of its HMAC
(:func:`~repro.crypto.hmac.keyed_states`), so the key schedule (padding
the key, hashing both pad blocks) is paid once per key rather than once
per epoch.  :meth:`PRF.evaluate` makes two state copies and no other
object: copy the inner state, ``update(message)``, ``digest``; copy the
outer state, ``update(inner digest)``, ``digest``.  It is the single
entry point of every derivation (:meth:`~PRF.at_epoch`,
:meth:`~PRF.expand` and :meth:`~PRF.derive_key` all call it).  The SIES
roles (:mod:`repro.core.source`, :mod:`repro.core.keys`) encode the
epoch once per role call with :func:`encode_epoch` and hand those bytes
to :meth:`~PRF.evaluate` for each of their derivations.  The
keyed states are built lazily, on the first evaluation, so setup
(``2N+1`` PRFs in :class:`repro.core.keys.SIESKeyMaterial`, which every
source shares) runs no hash.  The fill is one assignment of the pair and
benign under threads: racing first evaluations build identical states
and either pair may be kept.

Building a PRF resolves its hash once, to the shared descriptor of its
algorithm and backend (:func:`~repro.crypto.hashes.get_hash`), so the
backend is fixed when the PRF is built and a later default switch
leaves it alone.  A SIES source derives on its key material's PRFs, so
its backend is the one in force when the key material (the protocol)
was built, not when the source was created.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.hmac import keyed_states
from repro.crypto.hashes import get_hash
from repro.errors import ParameterError
from repro.utils.bytesops import bytes_to_int, int_to_bytes
from repro.utils.validation import check_nonnegative_int, check_positive_int

__all__ = ["PRF", "encode_epoch"]

_EPOCH_BYTES = 8
_EPOCH_LIMIT = 1 << (8 * _EPOCH_BYTES)


def encode_epoch(epoch: int) -> bytes:
    """Canonical 8-byte big-endian encoding of a time epoch."""
    if type(epoch) is int and 0 <= epoch < _EPOCH_LIMIT:
        return epoch.to_bytes(_EPOCH_BYTES, "big")  # the per-epoch hot path
    check_nonnegative_int("epoch", epoch)
    if epoch >= _EPOCH_LIMIT:
        raise ParameterError(f"epoch {epoch} exceeds 64 bits")
    return int_to_bytes(epoch, _EPOCH_BYTES)


class PRF:
    """A keyed PRF ``F_K(x)`` realized as HMAC (paper Section II-A).

    Parameters
    ----------
    key:
        The long-lived secret (e.g. the paper's ``K`` or ``k_i``).
    algorithm:
        ``"sha1"`` for the paper's ``HM1`` flavour (20-byte outputs) or
        ``"sha256"`` for ``HM256`` (32-byte outputs).
    backend:
        Optional hash-backend override (see :mod:`repro.crypto.hashes`).
    """

    __slots__ = ("_key", "_hash", "_states", "algorithm")

    def __init__(self, key: bytes, algorithm: str = "sha256", backend: str | None = None) -> None:
        if type(key) is not bytes or not key:  # an exact non-empty bytes key is kept as is
            if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
                raise ParameterError("PRF key must be a non-empty byte string")
            key = bytes(key)
        self._key = key
        self._hash = get_hash(algorithm, backend)
        self._states: tuple[Any, Any] | None = None
        self.algorithm = algorithm

    def __repr__(self) -> str:
        return f"PRF({self.algorithm!r}, backend={self._hash.backend!r})"

    @property
    def output_size(self) -> int:
        """Digest size in bytes (20 for sha1, 32 for sha256)."""
        return self._hash.digest_size

    def evaluate(self, message: bytes) -> bytes:
        """``F_K(message)`` as raw bytes (one HMAC evaluation, two state copies)."""
        states = self._states
        if states is None:
            states = self._states = keyed_states(self._key, self._hash)
        inner, outer = states
        inner = inner.copy()
        inner.update(message)
        outer = outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def at_epoch(self, epoch: int) -> bytes:
        """``F_K(t)`` with the canonical epoch encoding — the paper's use."""
        return self.evaluate(encode_epoch(epoch))

    def int_at_epoch(self, epoch: int, modulus: int | None = None) -> int:
        """``F_K(t)`` as a big-endian integer, optionally reduced mod *modulus*."""
        value = bytes_to_int(self.at_epoch(epoch))
        if modulus is not None:
            check_positive_int("modulus", modulus)
            value %= modulus
        return value

    def expand(self, message: bytes, length: int) -> bytes:
        """Counter-mode output expansion to *length* bytes.

        Evaluates ``F_K(message ∥ counter)`` for successive 4-byte
        counters and concatenates — the standard KDF-in-counter-mode
        construction.  Used where the extensions need more than one
        digest of keystream (never on the paper's critical path).
        """
        check_positive_int("length", length)
        blocks = -(-length // self.output_size)
        return b"".join(
            self.evaluate(message + int_to_bytes(counter, 4)) for counter in range(blocks)
        )[:length]

    def derive_key(self, label: str, length: int | None = None) -> bytes:
        """A labelled subkey ``F_K("derive" ∥ label)`` for domain separation."""
        message = b"derive:" + label.encode("utf-8")
        material = self.evaluate(message)
        if length is None or length == len(material):
            return material
        return self.expand(message, length)
