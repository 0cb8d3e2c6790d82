"""The SIES plaintext bit layout (paper Fig. 2).

A plaintext ``m_i,t`` is the big-endian concatenation::

    [ value : value_bits ][ 0…0 : pad_bits ][ share : share_bits ]

interpreted as a single integer: ``m = value << (pad+share) | share``.
Summing up to ``N = 2^pad_bits`` such integers keeps the value sums and
share sums in disjoint bit ranges: share-sum carries spill into the pad,
never into the value field.  Decoding the aggregate therefore splits it
back into the exact SUM and the aggregated secret ``s_t`` (paper Fig. 3).

The derived widths and bounds are computed once per layout, on first
use, not on every encode, decode or truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.params import SIESParams
from repro.errors import LayoutError, ParameterError
from repro.utils.validation import check_nonnegative_int

__all__ = ["MessageLayout"]


@dataclass(frozen=True)
class MessageLayout:
    """Encoder/decoder for the Fig. 2 message format."""

    value_bits: int
    pad_bits: int
    share_bits: int

    def __post_init__(self) -> None:
        check_nonnegative_int("value_bits", self.value_bits)
        check_nonnegative_int("pad_bits", self.pad_bits)
        check_nonnegative_int("share_bits", self.share_bits)
        if self.value_bits == 0 or self.share_bits == 0:
            raise LayoutError("value and share fields must be non-empty")

    @classmethod
    def from_params(cls, params: SIESParams) -> "MessageLayout":
        return cls(
            value_bits=params.value_bits,
            pad_bits=params.pad_bits,
            share_bits=params.share_bits,
        )

    # ------------------------------------------------------------------

    @cached_property
    def total_bits(self) -> int:
        return self.value_bits + self.pad_bits + self.share_bits

    @cached_property
    def secret_bits(self) -> int:
        """Width of the pad+share region — the extracted ``s_t`` field.

        The paper describes this as "the remaining (log N)/8 + 20 bytes".
        """
        return self.pad_bits + self.share_bits

    @cached_property
    def max_value(self) -> int:
        return (1 << self.value_bits) - 1

    @cached_property
    def max_share(self) -> int:
        return (1 << self.share_bits) - 1

    @cached_property
    def aggregation_capacity(self) -> int:
        """How many messages may be summed before shares can overflow."""
        return 1 << self.pad_bits

    @cached_property
    def _share_slice(self) -> tuple[int, int]:
        """``(bytes read, bits dropped)`` when a digest becomes a share."""
        needed = (self.share_bits + 7) // 8
        return needed, needed * 8 - self.share_bits

    # ------------------------------------------------------------------

    def encode(self, value: int, share: int) -> int:
        """Pack ``(value, share)`` into the plaintext integer ``m_i,t``."""
        if type(value) is not int or type(share) is not int or value < 0 or share < 0:
            check_nonnegative_int("value", value)
            check_nonnegative_int("share", share)
        if value > self.max_value:
            raise LayoutError(
                f"value {value} exceeds the {self.value_bits}-bit value field"
            )
        if share > self.max_share:
            raise LayoutError(
                f"share needs {share.bit_length()} bits but the field has {self.share_bits}"
            )
        return (value << self.secret_bits) | share

    def decode(self, message: int) -> tuple[int, int]:
        """Split an (aggregate) plaintext into ``(result, secret)``.

        ``secret`` occupies the full pad+share region, so share-sum
        carries are included — exactly what ``Σ ss_i,t`` equals when the
        aggregate is legitimate.
        """
        check_nonnegative_int("message", message)
        if message.bit_length() > self.total_bits:
            raise LayoutError(
                f"aggregate plaintext needs {message.bit_length()} bits, "
                f"layout has {self.total_bits}; the result field overflowed "
                "or the ciphertext was corrupted"
            )
        secret_mask = (1 << self.secret_bits) - 1
        return message >> self.secret_bits, message & secret_mask

    def truncate_share(self, digest: bytes) -> int:
        """Reduce an HM1 digest to this layout's share width.

        With the default 20-byte shares this is the identity on the
        digest; the share-size ablation keeps the leading bytes.
        """
        needed, excess = self._share_slice
        if len(digest) < needed:
            raise ParameterError(
                f"digest of {len(digest)} bytes cannot fill a {self.share_bits}-bit share"
            )
        share = int.from_bytes(digest[:needed], "big")
        return share >> excess if excess else share
