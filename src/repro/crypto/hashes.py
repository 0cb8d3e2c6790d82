"""Uniform hash interface with selectable backends.

The paper's primitives are SHA-1 (inside ``HM1``) and SHA-256 (inside
``HM256``).  This module exposes them through :class:`HashFunction`
descriptors so that the rest of the library never imports a concrete
implementation:

* backend ``"pure"`` — the from-scratch FIPS 180-4 implementations in
  :mod:`repro.crypto.sha1` / :mod:`repro.crypto.sha256`;
* backend ``"hashlib"`` (default) — CPython's OpenSSL-backed hashlib,
  a drop-in fast path that the tests cross-validate against ``"pure"``.

The active backend is process-global (:func:`set_default_backend`) and
can be overridden per call; the ablation benchmark
``benchmarks/test_ablation_hash_backend.py`` quantifies the gap.

Descriptors are immutable, so :func:`get_hash` hands out one shared
:class:`HashFunction` per ``(algorithm, resolved backend)``, built on
first use: SIES set-up keys ``2N+1`` PRFs, and each resolves its hash
with one dictionary lookup.  The backend is resolved *before* the
lookup, so a later :func:`set_default_backend` changes what the next
call returns but never a descriptor already handed out.  An unknown
algorithm or backend raises on every call and is never stored.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

from repro.crypto.sha1 import SHA1
from repro.crypto.sha256 import SHA256
from repro.errors import ConfigurationError, ParameterError

__all__ = [
    "HashFunction",
    "available_backends",
    "get_hash",
    "set_default_backend",
    "get_default_backend",
    "sha1",
    "sha256",
]

_BACKENDS = ("hashlib", "pure")
_default_backend = "hashlib"


@dataclass(frozen=True)
class HashFunction:
    """A named hash algorithm bound to a concrete backend.

    Instances behave like ``hashlib`` constructors: call :meth:`new` for
    incremental use or :meth:`digest` for one-shot hashing.
    """

    name: str
    digest_size: int
    block_size: int
    backend: str
    _factory: Callable[[bytes], object]

    def new(self, data: bytes = b""):
        """A fresh incremental hasher (update/digest/copy API)."""
        return self._factory(data)

    def digest(self, data: bytes) -> bytes:
        """One-shot digest of *data*."""
        return self._factory(data).digest()

    def hexdigest(self, data: bytes) -> str:
        return self._factory(data).hexdigest()


_PURE_FACTORIES: dict[str, Callable[[bytes], object]] = {
    "sha1": SHA1,
    "sha256": SHA256,
}

_SIZES = {"sha1": (20, 64), "sha256": (32, 64)}

#: ``(algorithm, resolved backend)`` → its one shared descriptor.
_DESCRIPTORS: dict[tuple[str, str], HashFunction] = {}


def available_backends() -> tuple[str, ...]:
    """Backends accepted by :func:`get_hash` / :func:`set_default_backend`."""
    return _BACKENDS


def set_default_backend(backend: str) -> None:
    """Select the process-global default backend (``"hashlib"``/``"pure"``)."""
    global _default_backend
    if backend not in _BACKENDS:
        raise ConfigurationError(
            f"unknown hash backend {backend!r}; expected one of {_BACKENDS}"
        )
    _default_backend = backend


def get_default_backend() -> str:
    """The currently selected process-global backend name."""
    return _default_backend


def get_hash(name: str, backend: str | None = None) -> HashFunction:
    """Resolve algorithm *name* (``"sha1"``/``"sha256"``) on a backend.

    Repeated calls for the same algorithm and resolved backend return
    the same descriptor.
    """
    key = (name, backend or _default_backend)
    descriptor = _DESCRIPTORS.get(key)
    if descriptor is None:
        descriptor = _DESCRIPTORS[key] = _build(*key)
    return descriptor


def _build(name: str, backend: str) -> HashFunction:
    if name not in _SIZES:
        raise ParameterError(f"unsupported hash algorithm {name!r}")
    if backend not in _BACKENDS:
        raise ConfigurationError(
            f"unknown hash backend {backend!r}; expected one of {_BACKENDS}"
        )
    digest_size, block_size = _SIZES[name]
    if backend == "pure":
        factory = _PURE_FACTORIES[name]
    else:
        factory = _hashlib_factory(name)
    return HashFunction(
        name=name,
        digest_size=digest_size,
        block_size=block_size,
        backend=backend,
        _factory=factory,
    )


def _hashlib_factory(name: str) -> Callable[[bytes], object]:
    def factory(data: bytes = b""):
        return hashlib.new(name, data)

    return factory


def sha1(backend: str | None = None) -> HashFunction:
    """The SHA-1 hash function (paper's ``H`` inside ``HM1``)."""
    return get_hash("sha1", backend)


def sha256(backend: str | None = None) -> HashFunction:
    """The SHA-256 hash function (paper's ``H`` inside ``HM256``)."""
    return get_hash("sha256", backend)
