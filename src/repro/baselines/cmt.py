"""CMT — efficient aggregation of encrypted data (Castelluccia et al. [5]).

The paper's confidentiality-only benchmark (Section II-D): source
``S_i`` shares key ``k_i`` with the querier and sends
``c_i = v_i + k_{i,t} mod n`` for a public modulus ``n``; aggregators
add ciphertexts; the querier recovers ``Σ v_i = c − Σ k_{i,t} mod n``.
Following the paper's cost model (Section V), freshness is obtained by
deriving per-epoch keys ``k_{i,t} = HM1(k_i, t)``, making ``n`` a
20-byte modulus and each edge carry exactly 20 bytes.

There is **no integrity**: any party can add an arbitrary residue to a
ciphertext and shift the decrypted SUM undetectably — the attack
scenarios demonstrate precisely this, so CMT results always report
``verified=False``.

Costs (paper Eqs. 1, 4, 7): source ``C_HM1 + C_A20``; aggregator
``(F−1)·C_A20``; querier ``N·(C_HM1 + C_A20)``.
"""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.wire.codecs import CMTCodec

from repro.crypto.prf import PRF
from repro.errors import KeyMaterialError, ParameterError, ProtocolError
from repro.protocols.base import (
    AggregatorRole,
    EvaluationResult,
    OpCounter,
    PartialStateRecord,
    QuerierRole,
    SecureAggregationProtocol,
    SourceRole,
    validated_reporting_subset,
)
from repro.protocols.registry import register_protocol
from repro.utils.bytesops import bytes_to_int
from repro.utils.rng import DeterministicRandom

__all__ = ["CMTRecord", "CMTProtocol"]

#: 20-byte modulus, sized by the HM1-derived keys (paper Section V).
CMT_MODULUS_BITS = 160
CMT_KEY_BYTES = 20


@dataclass
class CMTRecord(PartialStateRecord):
    """A CMT PSR: one 20-byte ciphertext residue."""

    ciphertext: int
    epoch: int
    modulus_bytes: int

    def wire_size(self) -> int:
        return self.modulus_bytes


class CMTSource(SourceRole):
    """Computes ``c_i = v_i + HM1(k_i, t) mod n``."""

    def __init__(self, source_id: int, key: bytes, modulus: int, *, ops: OpCounter | None = None) -> None:
        self.source_id = source_id
        self._prf = PRF(key, "sha1")
        self._n = modulus
        self._modulus_bytes = ((modulus - 1).bit_length() + 7) // 8
        self._ops = ops

    def initialize(self, epoch: int, value: int) -> CMTRecord:
        if value < 0:
            raise ParameterError(f"CMT aggregates non-negative integers, got {value}")
        if value >= self._n:
            raise ParameterError(f"value {value} does not fit modulus {self._n}")
        pad = bytes_to_int(self._prf.at_epoch(epoch)) % self._n
        ciphertext = (value + pad) % self._n
        if self._ops is not None:
            self._ops.add("hm1", 1)
            self._ops.add("add20", 1)
        return CMTRecord(ciphertext=ciphertext, epoch=epoch, modulus_bytes=self._modulus_bytes)


class CMTAggregator(AggregatorRole):
    """Adds ciphertexts modulo ``n`` — ``F−1`` 20-byte additions."""

    def __init__(self, modulus: int, *, ops: OpCounter | None = None) -> None:
        self._n = modulus
        self._modulus_bytes = ((modulus - 1).bit_length() + 7) // 8
        self._ops = ops

    def merge(self, epoch: int, psrs: Sequence[PartialStateRecord]) -> CMTRecord:
        if not psrs:
            raise ProtocolError("aggregator received no PSRs to merge")
        total = 0
        for psr in psrs:
            if not isinstance(psr, CMTRecord):
                raise ProtocolError(f"CMT aggregator received foreign PSR {type(psr).__name__}")
            if psr.epoch != epoch:
                raise ProtocolError(
                    f"PSR epoch header {psr.epoch} does not match current epoch {epoch}"
                )
            total = (total + psr.ciphertext) % self._n
        if self._ops is not None and len(psrs) > 1:
            self._ops.add("add20", len(psrs) - 1)
        return CMTRecord(ciphertext=total, epoch=epoch, modulus_bytes=self._modulus_bytes)


class CMTQuerier(QuerierRole):
    """Subtracts the ``N`` temporal keys; cannot verify anything.

    :meth:`evaluate` checks its reporting subset with
    :func:`~repro.protocols.base.validated_reporting_subset`, as every
    querier does: an empty subset, an id that is not an ``int``, an id
    outside ``[0, N)`` or a duplicate id raises
    :class:`~repro.errors.ProtocolError`.
    """

    def __init__(self, keys: Sequence[bytes], modulus: int, *, ops: OpCounter | None = None) -> None:
        self._prfs = [PRF(k, "sha1") for k in keys]
        self._n = modulus
        self._ops = ops

    def evaluate(
        self,
        epoch: int,
        psr: PartialStateRecord,
        *,
        reporting_sources: Sequence[int] | None = None,
    ) -> EvaluationResult:
        if not isinstance(psr, CMTRecord):
            raise ProtocolError(f"CMT querier received foreign PSR {type(psr).__name__}")
        subset = validated_reporting_subset(reporting_sources, len(self._prfs))
        contributors = range(len(self._prfs)) if subset is None else subset
        total = psr.ciphertext
        count = 0
        for source_id in contributors:
            pad = bytes_to_int(self._prfs[source_id].at_epoch(epoch)) % self._n
            total = (total - pad) % self._n
            count += 1
        if self._ops is not None:
            self._ops.add("hm1", count)
            self._ops.add("add20", count)
        # CMT has no integrity mechanism: whatever the residue decodes
        # to is reported, and ``verified`` is False by construction.
        return EvaluationResult(
            value=total, epoch=epoch, verified=False, exact=True, extras={"contributors": count}
        )


class CMTProtocol(SecureAggregationProtocol):
    """Protocol facade registered as ``"cmt"``."""

    name = "cmt"
    exact = True
    provides_confidentiality = True
    provides_integrity = False

    def __init__(self, num_sources: int, *, seed: int | None = None) -> None:
        super().__init__(num_sources)
        #: Public modulus: 2^160 keeps ciphertexts at the paper's 20 bytes.
        self.n = 1 << CMT_MODULUS_BITS
        if seed is None:
            draw = lambda: secrets.token_bytes(CMT_KEY_BYTES)  # noqa: E731
        else:
            rng = DeterministicRandom(seed, "cmt-keys")
            draw = lambda: rng.random_bytes(CMT_KEY_BYTES)  # noqa: E731
        keys: list[bytes] = []
        seen: set[bytes] = set()
        while len(keys) < num_sources:
            key = draw()
            if key in seen:
                continue
            seen.add(key)
            keys.append(key)
        self.keys = keys

    @property
    def psr_bytes(self) -> int:
        return ((self.n - 1).bit_length() + 7) // 8

    def create_source(self, source_id: int, *, ops: OpCounter | None = None) -> CMTSource:
        self._check_source_id(source_id)
        return CMTSource(source_id, self.keys[source_id], self.n, ops=ops)

    def create_aggregator(self, *, ops: OpCounter | None = None) -> CMTAggregator:
        return CMTAggregator(self.n, ops=ops)

    def create_querier(self, *, ops: OpCounter | None = None) -> CMTQuerier:
        if len(self.keys) != self.num_sources:
            raise KeyMaterialError("key material inconsistent with source count")
        return CMTQuerier(self.keys, self.n, ops=ops)

    def wire_codec(self) -> "CMTCodec":
        """Byte codec framing this instance's 20-byte residues."""
        from repro.wire.codecs import CMTCodec

        return CMTCodec(self.psr_bytes)


register_protocol("cmt", CMTProtocol)
