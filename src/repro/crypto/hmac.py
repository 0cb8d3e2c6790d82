"""HMAC (RFC 2104 / FIPS 198-1) over the library hash interface.

The paper uses two HMAC instantiations throughout (Table I):

* ``HM1(K, m)``   — HMAC with SHA-1, 20-byte output; produces the secret
  shares ``ss_i,t`` and CMT's temporal keys, and SECOA's inflation
  certificates and temporal seeds.
* ``HM256(K, m)`` — HMAC with SHA-256, 32-byte output; produces the SIES
  temporal keys ``K_t`` and ``k_i,t``.

This module implements HMAC from its definition,
``H((K' ⊕ opad) ∥ H((K' ⊕ ipad) ∥ m))``, over any
:class:`repro.crypto.hashes.HashFunction` — including the pure-Python
backends — and is cross-validated against :mod:`hmac` in the tests.

The key schedule is :func:`keyed_states`: it derives ``K' ⊕ ipad`` and
``K' ⊕ opad`` with ``bytes.translate`` over two precomputed 256-byte
tables (as the stdlib does) and absorbs each pad block into its own
hash state.  It is paid once per :class:`HMAC` and once per
:class:`repro.crypto.prf.PRF`.  The outer state is never updated in
place, so an evaluation costs two state copies: the inner state, to
hash the message, and the outer state, to hash the inner digest.
:meth:`HMAC.copy` therefore clones only the inner state and shares the
outer one.  Both pad states are key-equivalent secrets; ``repr`` shows
only the algorithm and backend.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.hashes import HashFunction, get_hash

__all__ = ["hmac_digest", "keyed_states", "HMAC", "HM1", "HM256"]

#: ``x ⊕ ipad`` / ``x ⊕ opad`` for every byte value, for ``bytes.translate``.
_TRANS_IPAD = bytes(x ^ 0x36 for x in range(256))
_TRANS_OPAD = bytes(x ^ 0x5C for x in range(256))


def keyed_states(key: bytes, hash_function: HashFunction) -> tuple[Any, Any]:
    """The HMAC key schedule: the hash states after ``K' ⊕ ipad`` and ``K' ⊕ opad``.

    Callers copy the states before updating them; the pair stays keyed
    for the lifetime of the key.
    """
    block_size = hash_function.block_size
    if len(key) > block_size:
        key = hash_function.digest(key)
    key = key.ljust(block_size, b"\x00")
    return (
        hash_function.new(key.translate(_TRANS_IPAD)),
        hash_function.new(key.translate(_TRANS_OPAD)),
    )


class HMAC:
    """Incremental HMAC bound to a key and a hash function."""

    __slots__ = ("_hash", "_inner", "_outer")

    def __init__(self, key: bytes, hash_function: HashFunction, data: bytes = b"") -> None:
        self._hash = hash_function
        self._inner, self._outer = keyed_states(key, hash_function)
        if data:
            self._inner.update(data)

    def __repr__(self) -> str:
        return f"HMAC({self._hash.name}, backend={self._hash.backend!r})"

    @property
    def digest_size(self) -> int:
        return self._hash.digest_size

    def copy(self) -> "HMAC":
        """An independent clone: updating it never touches this instance.

        The outer state is shared: :meth:`digest` copies it before use.
        """
        clone = HMAC.__new__(HMAC)
        clone._hash = self._hash
        clone._inner = self._inner.copy()
        clone._outer = self._outer
        return clone

    def update(self, data: bytes) -> None:
        self._inner.update(data)

    def digest(self) -> bytes:
        outer = self._outer.copy()
        outer.update(self._inner.digest())
        return outer.digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def hmac_digest(
    key: bytes,
    message: bytes,
    algorithm: str = "sha256",
    backend: str | None = None,
) -> bytes:
    """One-shot HMAC of *message* under *key*."""
    return HMAC(key, get_hash(algorithm, backend), message).digest()


def HM1(key: bytes, message: bytes, backend: str | None = None) -> bytes:
    """The paper's ``HM1``: HMAC-SHA1, 20-byte digest."""
    return HMAC(key, get_hash("sha1", backend), message).digest()


def HM256(key: bytes, message: bytes, backend: str | None = None) -> bytes:
    """The paper's ``HM256``: HMAC-SHA256, 32-byte digest."""
    return HMAC(key, get_hash("sha256", backend), message).digest()
