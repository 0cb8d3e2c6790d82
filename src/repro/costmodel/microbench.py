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

Results are cached per process: experiments re-use one measurement.
"""

from __future__ import annotations

import random

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


def measure_constants(
    *,
    repeat: int = DEFAULT_REPEATS,
    inner_loops: int = 200,
    rsa_exponent: int = 3,
    seed: int = 2011,
) -> CostConstants:
    """Micro-benchmark every Table II constant on this machine.

    Uses the median over *repeat* batches of *inner_loops* calls, which
    is robust to scheduler noise on shared hosts.
    """
    cache_key = (repeat, inner_loops, rsa_exponent)
    if cache_key in _cache:
        return _cache[cache_key]

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

    def timed(op) -> float:
        return time_operation(op, repeat=repeat, inner_loops=inner_loops).median

    constants = CostConstants(
        c_hm1=timed(lambda: prf_hm1.int_at_epoch(epoch)),
        c_hm256=timed(lambda: prf_hm256.int_at_epoch(epoch)),
        c_a20=timed(lambda: (a160 + b160) % n160),
        c_a32=timed(lambda: (a256 + b256) % p256),
        c_m32=timed(lambda: (a256 * b256) % p256),
        c_m128=timed(lambda: (m1024 * m1024b) % n1024),
        c_mi32=timed(lambda: modinv(a256, p256)),
        c_rsa=timed(lambda: keypair.public.encrypt(m1024)),
        c_sk=timed(lambda: item_level(7, 42)),
    )
    _cache[cache_key] = constants
    return constants
