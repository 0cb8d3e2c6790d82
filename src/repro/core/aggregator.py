"""SIES merging phase — what runs on an aggregator sensor (Section IV-A).

Aggregators are *keyless*: they hold only the public modulus ``p`` and
compute ``PSR' = Σ PSR_j mod p`` over their children's records —
``F - 1`` modular additions for fanout ``F``, the paper's Eq. 6.  The
output PSR has the same 32-byte size as each input, so the scheme's
communication cost is constant per edge regardless of subtree size.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.source import SIESRecord
from repro.errors import ProtocolError
from repro.protocols.base import AggregatorRole, OpCounter, PartialStateRecord

__all__ = ["SIESAggregator"]


class SIESAggregator(AggregatorRole):
    """Adds ciphertexts modulo the public prime ``p``."""

    def __init__(self, p: int, *, ops: OpCounter | None = None) -> None:
        if p <= 2:
            raise ProtocolError(f"invalid public modulus {p}")
        self._p = p
        self._modulus_bytes = (p.bit_length() + 7) // 8
        self._ops = ops

    def merge(self, epoch: int, psrs: Sequence[PartialStateRecord]) -> SIESRecord:
        if not psrs:
            raise ProtocolError("aggregator received no PSRs to merge")
        total = 0
        for psr in psrs:
            if not isinstance(psr, SIESRecord):
                raise ProtocolError(f"SIES aggregator received foreign PSR {type(psr).__name__}")
            if psr.epoch != epoch:
                # Honest aggregators sanity-check the plaintext epoch
                # header; attackers bypass this by relabelling, which is
                # why freshness ultimately rests on the shares.
                raise ProtocolError(
                    f"PSR epoch header {psr.epoch} does not match current epoch {epoch}"
                )
            total = (total + psr.ciphertext) % self._p
        if self._ops is not None and len(psrs) > 1:
            self._ops.add("add32", len(psrs) - 1)
        return SIESRecord(ciphertext=total, epoch=epoch, modulus_bytes=self._modulus_bytes)
