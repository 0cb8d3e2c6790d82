"""Shared low-level helpers: byte/int codecs, timing, deterministic RNG."""

from repro.utils.bytesops import (
    bytes_to_int,
    constant_time_eq,
    int_byte_length,
    int_to_bytes,
    xor_bytes,
)
from repro.utils.rng import DeterministicRandom, derive_seed
from repro.utils.timing import TimingStats, time_operation
from repro.utils.validation import (
    check_in_range,
    check_nonnegative_int,
    check_positive_int,
    check_type,
)

__all__ = [
    "bytes_to_int",
    "int_to_bytes",
    "int_byte_length",
    "xor_bytes",
    "constant_time_eq",
    "DeterministicRandom",
    "derive_seed",
    "TimingStats",
    "time_operation",
    "check_positive_int",
    "check_nonnegative_int",
    "check_in_range",
    "check_type",
]
