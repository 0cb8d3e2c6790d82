"""Measure the Table II cost constants on this host.

Each primitive is timed exactly as the protocols execute it:

* ``C_HM1`` / ``C_HM256`` — one ``PRF(key20, alg).int_at_epoch(t)`` on
  a warm PRF: ``evaluate`` of the 8-byte epoch encoding, read as an
  integer, which is how every role consumes each temporal derivation.
  The PRF's keyed HMAC state is built by its first evaluation, a
  one-time, per-key cost outside the timed loop;
* ``C_A20`` / ``C_A32`` — one modular addition at 160 / 256 bits;
* ``C_M32`` / ``C_M128`` — one modular multiplication at 256 / 1024 bits;
* ``C_MI32`` — one extended-Euclid inverse at 256 bits;
* ``C_RSA`` — one raw RSA encryption (default exponent 3, matching the
  SEAL implementation — documented in DESIGN.md);
* ``C_sk`` — one per-item sketch insertion (hash + trailing zeros),
  i.e. the reference ``PER_ITEM`` strategy's unit cost.

Results are cached per process: experiments re-use one measurement
(``fresh=True`` re-times without touching the cache).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.baselines.secoa.sketch import item_level
from repro.costmodel.constants import CostConstants
from repro.crypto.modular import modinv
from repro.crypto.primes import next_prime
from repro.crypto.prf import PRF
from repro.crypto.rsa import generate_rsa_keypair
from repro.utils.timing import time_operation

__all__ = ["measure_constants", "DEFAULT_REPEATS"]

DEFAULT_REPEATS = 5
_cache: dict[tuple[int, int, int], CostConstants] = {}
_operations_cache: dict[tuple[int, int], dict[str, Callable[[], object]]] = {}


def _operations(rsa_exponent: int, seed: int) -> dict[str, Callable[[], object]]:
    """The timed call behind each :class:`CostConstants` field.

    Operands (and the RSA key pair, whose generation dwarfs every
    timing) are built once per ``(rsa_exponent, seed)`` and reused.
    """
    cache_key = (rsa_exponent, seed)
    if cache_key in _operations_cache:
        return _operations_cache[cache_key]

    rng = random.Random(seed)
    key20 = rng.randbytes(20)
    epoch = 12345

    p256 = next_prime(1 << 255)
    a256 = rng.getrandbits(255)
    b256 = rng.getrandbits(255)
    n160 = 1 << 160
    a160 = rng.getrandbits(159)
    b160 = rng.getrandbits(159)

    keypair = generate_rsa_keypair(1024, rng=rng, public_exponent=rsa_exponent)
    n1024 = keypair.public.n
    m1024 = rng.getrandbits(1020)
    m1024b = rng.getrandbits(1020)

    prf_hm1 = PRF(key20, "sha1")
    prf_hm256 = PRF(key20, "sha256")

    operations: dict[str, Callable[[], object]] = {
        "c_hm1": lambda: prf_hm1.int_at_epoch(epoch),
        "c_hm256": lambda: prf_hm256.int_at_epoch(epoch),
        "c_a20": lambda: (a160 + b160) % n160,
        "c_a32": lambda: (a256 + b256) % p256,
        "c_m32": lambda: (a256 * b256) % p256,
        "c_m128": lambda: (m1024 * m1024b) % n1024,
        "c_mi32": lambda: modinv(a256, p256),
        "c_rsa": lambda: keypair.public.encrypt(m1024),
        "c_sk": lambda: item_level(7, 42),
    }
    _operations_cache[cache_key] = operations
    return operations


def measure_constants(
    *,
    repeat: int = DEFAULT_REPEATS,
    inner_loops: int = 200,
    rsa_exponent: int = 3,
    seed: int = 2011,
    fresh: bool = False,
) -> CostConstants:
    """Micro-benchmark every Table II constant on this machine.

    Uses the median over *repeat* batches of *inner_loops* calls, which
    is robust to scheduler noise on shared hosts.  *fresh* times anew
    and leaves the per-process cache alone: a model priced from it
    describes the CPU as it is now, not as it was at the first call.
    """
    cache_key = (repeat, inner_loops, rsa_exponent)
    if not fresh and cache_key in _cache:
        return _cache[cache_key]

    constants = CostConstants(**{
        name: time_operation(op, repeat=repeat, inner_loops=inner_loops).median
        for name, op in _operations(rsa_exponent, seed).items()
    })
    if not fresh:
        _cache[cache_key] = constants
    return constants
