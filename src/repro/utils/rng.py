"""Deterministic randomness for reproducible simulations.

Experiments must be replayable run-to-run, so every stochastic component
(dataset generator, topology builder, sketch hashing, adversary) draws
from a :class:`DeterministicRandom` seeded from a root seed plus a label.
Order-independent draws — a fault verdict that must be the same no
matter when it is asked for — come from :func:`keyed_uniforms` instead:
one keyed digest per coordinate, no generator state at all.
Key material, by contrast, is generated from the PRF layer
(:mod:`repro.crypto.prf`), never from here.
"""

from __future__ import annotations

import hashlib
import random
import struct

from repro.errors import ParameterError

__all__ = ["DeterministicRandom", "derive_key", "derive_seed", "keyed_uniforms"]

#: Uniforms per :func:`keyed_uniforms` call: one 64-byte BLAKE2b digest.
_MAX_UNIFORMS = 8
#: Weight of the lowest of the 53 bits a double carries.
_ULP = 2.0**-53
_UNPACK = [struct.Struct(f">{n}Q").unpack for n in range(_MAX_UNIFORMS + 1)]


def derive_key(root_seed: int, *labels: str) -> bytes:
    """Derive a 32-byte child key from a root seed and a label path.

    SHA-256 over the decimal seed and the ``/``-joined labels, so child
    keys are independent and stable across Python versions (``hash()``
    randomization would not be).
    """
    h = hashlib.sha256()
    h.update(str(root_seed).encode("ascii"))
    for label in labels:
        h.update(b"/")
        h.update(label.encode("utf-8"))
    return h.digest()


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a 64-bit child seed: the first 8 bytes of :func:`derive_key`."""
    return int.from_bytes(derive_key(root_seed, *labels)[:8], "big")


def keyed_uniforms(key: bytes, label: bytes, n: int) -> tuple[float, ...]:
    """*n* uniforms in ``[0, 1)``, a pure function of ``(key, label, n)``.

    One keyed BLAKE2b digest of ``8*n`` bytes, read as big-endian 64-bit
    words.  Each word keeps its top 53 bits, ``(x >> 11) * 2**-53``: a
    plain ``x * 2**-64`` rounds the largest words up to exactly ``1.0``,
    and a loss threshold of ``1.0`` (a down node) must catch every draw.
    """
    if n == 0:
        return ()
    if not 0 < n <= _MAX_UNIFORMS:
        raise ParameterError(f"keyed_uniforms draws 0..{_MAX_UNIFORMS} values, got {n}")
    words = _UNPACK[n](hashlib.blake2b(label, key=key, digest_size=8 * n).digest())
    return tuple([(x >> 11) * _ULP for x in words])


class DeterministicRandom(random.Random):
    """A :class:`random.Random` with labelled child-stream derivation."""

    def __init__(self, seed: int, *labels: str) -> None:
        self._root_seed = seed
        self._labels = labels
        super().__init__(derive_seed(seed, *labels))

    def child(self, *labels: str) -> "DeterministicRandom":
        """An independent stream for a sub-component."""
        return DeterministicRandom(self._root_seed, *self._labels, *labels)

    def random_bytes(self, length: int) -> bytes:
        """*length* pseudo-random bytes (simulation use only, not keys)."""
        return self.getrandbits(length * 8).to_bytes(length, "big") if length else b""
