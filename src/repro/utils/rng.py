"""Deterministic randomness for reproducible simulations.

Experiments must be replayable run-to-run, so every stochastic component
(dataset generator, topology builder, sketch hashing, adversary) draws
from a :class:`DeterministicRandom` seeded from a root seed plus a label.
Order-independent draws — a fault verdict that must be the same no
matter when it is asked for — come from
:class:`~repro.runtime.faults.KeyedFaultInjector` instead: one keyed
digest per coordinate under a :func:`derive_key` key, no generator
state at all.
Key material, by contrast, is generated from the PRF layer
(:mod:`repro.crypto.prf`), never from here.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["DeterministicRandom", "derive_key", "derive_seed"]


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
