"""SIES initialization phase — what runs on a source sensor (Section IV-A).

Per epoch, with reading ``v_i,t``:

1. ``K_t   = HM256(K, t)``          (one HM256)
2. ``k_i,t = HM256(k_i, t)``        (one HM256)
3. ``ss_i,t = HM1(k_i, t)``         (one HM1)
4. ``m_i,t = v_i,t ∥ 0…0 ∥ ss_i,t`` (bit packing, free)
5. ``PSR_i,t = K_t · m_i,t + k_i,t  mod p``  (one 32-byte modular
   multiplication and one addition)

— total cost ``2·C_HM256 + C_HM1 + C_M32 + C_A32``, the paper's Eq. 3.

Each :meth:`SIESSource.initialize` call encodes its epoch once and
feeds those bytes to all three HMACs, and charges the Eq. 3 counts in
one :meth:`~repro.protocols.base.OpCounter.charge` of a cost bundle
validated when the module loads.  The source's three PRFs are the ones
its :class:`~repro.core.keys.SourceKeys` carries — the key material's,
so a deployment builds one PRF per ``(key, hash)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.keys import SourceKeys, _temporal_int
from repro.core.layout import MessageLayout
from repro.crypto.prf import encode_epoch
from repro.errors import LayoutError
from repro.protocols.base import OpCosts, OpCounter, PartialStateRecord, SourceRole

__all__ = ["SIESRecord", "SIESSource"]

#: One initialization's primitive operations, the paper's Eq. 3.
_EQ3_COSTS = OpCosts(hm256=2, hm1=1, mul32=1, add32=1)


@dataclass(slots=True)
class SIESRecord(PartialStateRecord):
    """A SIES PSR: one ciphertext residue mod ``p``.

    ``epoch`` is a plaintext header (untrusted); ``modulus_bytes`` fixes
    the wire size — every SIES PSR, from a leaf or an aggregate, is the
    same ``|p|`` bytes (32 at paper settings), which is the scheme's
    constant-communication property.
    """

    ciphertext: int
    epoch: int
    modulus_bytes: int

    def wire_size(self) -> int:
        return self.modulus_bytes


class SIESSource(SourceRole):
    """Runs the initialization phase with source ``i``'s key material."""

    def __init__(
        self,
        keys: SourceKeys,
        layout: MessageLayout,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        # The key material's own PRFs: each builds its keyed HMAC state
        # on its first evaluation, by whichever party evaluates it first.
        (
            self.source_id,
            _,
            _,
            p,
            self._master_prf,
            self._pad_prf,
            self._share_prf,
        ) = keys
        self._layout = layout
        self._p = p
        self._modulus_bytes = (p.bit_length() + 7) // 8
        self._ops = ops

    def initialize(self, epoch: int, value: int) -> SIESRecord:
        """Produce ``PSR_i,t`` for this source's *value* at *epoch*."""
        if value < 0:
            raise LayoutError(
                f"SIES aggregates non-negative integers; got {value} "
                "(encode other types by translation/scaling, Section III-B)"
            )
        layout = self._layout
        if value > layout.max_value:
            raise LayoutError(
                f"reading {value} exceeds the {layout.value_bits}-bit value field"
            )

        encoded = encode_epoch(epoch)
        k_t = _temporal_int(self._master_prf, encoded, self._p, require_invertible=True)
        k_it = int.from_bytes(self._pad_prf.evaluate(encoded), "big")
        share = layout.truncate_share(self._share_prf.evaluate(encoded))

        message = layout.encode(value, share)
        ciphertext = (k_t * message + k_it) % self._p

        if self._ops is not None:
            self._ops.charge(_EQ3_COSTS)
        return SIESRecord(ciphertext, epoch, self._modulus_bytes)
