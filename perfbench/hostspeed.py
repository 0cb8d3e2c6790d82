"""A fixed reference loop that tracks the host's current speed.

The host's speed drifts and switches between regimes for seconds at a
time. The same epochs run up to about 1.6× slower in a slow stretch,
while the process keeps its CPU (CPU time ≈ wall time). The benchmark
therefore times this loop just before and just after every batch. It
then scales the batch's timings to a host on which the loop takes
:data:`REFERENCE_SECONDS`::

    scaled = measured × REFERENCE_SECONDS / reference time

The loop uses only the standard library (HMAC-SHA256 over ``hashlib``,
big-integer arithmetic, a dict), which is the kind of work the program
does. No change to the program can move it.  Each reading is the fastest
of a few short runs, which drops one-off preemption spikes and still
follows a slow regime, since every run inside it is slow.
"""

from __future__ import annotations

import hashlib
import hmac
import time

__all__ = ["REFERENCE_SECONDS", "reference_seconds"]

#: Nominal duration of one reference loop.
REFERENCE_SECONDS = 0.003

_MODULUS = (1 << 255) - 19
_KEY = b"perfbench-reference-key"
_ROUNDS = 900
_RUNS = 3


def _loop() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(_ROUNDS):
        digest = hmac.new(_KEY, i.to_bytes(8, "big"), hashlib.sha256).digest()
        acc = (acc * 0x9E3779B97F4A7C15 + int.from_bytes(digest, "big")) % _MODULUS
        table[i & 255] = acc
    return acc


def reference_seconds() -> float:
    """Wall time of the fastest of a few runs of the reference loop."""
    fastest = float("inf")
    for _ in range(_RUNS):
        started = time.perf_counter()
        _loop()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest
