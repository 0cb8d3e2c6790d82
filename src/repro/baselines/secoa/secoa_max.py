"""SECOA_M — the exact MAX protocol of SECOA (paper Section II-D).

Each source sends its value, an inflation certificate (an HMAC binding
the value to the source's key and the epoch) and a deflation
certificate (a SEAL at chain position equal to the value).  An
aggregator keeps the maximum value with its certificate, rolls every
child SEAL to the max position and folds them.  The querier checks the
winner's inflation certificate and recreates the aggregate SEAL from
the secret seeds (fold all, roll ``res`` times) — any inflation breaks
the HMAC, any deflation would require rolling a SEAL backwards.

SECOA_M answers MAX *exactly*; SECOA_S builds on it for approximate
SUM.  No confidentiality: values travel in plaintext.
"""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.secoa.certificates import (
    aggregate_certificates,
    inflation_certificate,
    temporal_seed_bytes,
)
from repro.baselines.secoa.seal import Seal, SealContext
from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
from repro.errors import IntegrityError, ParameterError, ProtocolError
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
from repro.utils.bytesops import bytes_to_int, constant_time_eq
from repro.utils.rng import DeterministicRandom

if TYPE_CHECKING:
    from repro.wire.codecs import SECOAMaxCodec

__all__ = ["SECOAMaxRecord", "SECOAMaxProtocol"]

_KEY_BYTES = 20

# RSA keygen is the slow part of setup; deterministic (seeded) keypairs
# are cached so parameter sweeps do not regenerate identical keys.
_keypair_cache: dict[tuple[int, int, int], RSAKeyPair] = {}


def _cached_keypair(bits: int, exponent: int, seed: int | None) -> RSAKeyPair:
    if seed is None:
        return generate_rsa_keypair(bits, public_exponent=exponent)
    cache_key = (bits, exponent, seed)
    if cache_key not in _keypair_cache:
        rng = DeterministicRandom(seed, "secoa-rsa")
        _keypair_cache[cache_key] = generate_rsa_keypair(
            bits, rng=rng, public_exponent=exponent
        )
    return _keypair_cache[cache_key]


def _generate_keys(count: int, seed: int | None, label: str) -> list[bytes]:
    if seed is None:
        return [secrets.token_bytes(_KEY_BYTES) for _ in range(count)]
    rng = DeterministicRandom(seed, label)
    return [rng.random_bytes(_KEY_BYTES) for _ in range(count)]


@dataclass
class SECOAMaxRecord(PartialStateRecord):
    """A SECOA_M PSR: value + inflation certificate + SEAL."""

    epoch: int
    value: int
    winner: int
    certificate: bytes
    seal: Seal
    seal_bytes: int

    def wire_size(self) -> int:
        # 4-byte value + 20-byte certificate + one SEAL.
        return 4 + len(self.certificate) + self.seal_bytes


class SECOAMaxSource(SourceRole):
    """Emits ``(v_i, HM1(K_i, v_i ∥ t), E^{v_i}(sd_{i,t}))``."""

    def __init__(
        self,
        source_id: int,
        cert_key: bytes,
        seed_key: bytes,
        seal_context: SealContext,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        self.source_id = source_id
        self._cert_key = cert_key
        self._seed_key = seed_key
        self._seals = seal_context
        self._ops = ops

    def initialize(self, epoch: int, value: int) -> SECOAMaxRecord:
        if value < 0:
            raise ParameterError(f"SECOA_M aggregates non-negative integers, got {value}")
        certificate = inflation_certificate(self._cert_key, 0, value, epoch)
        seed = bytes_to_int(temporal_seed_bytes(self._seed_key, 0, epoch))
        seal = self._seals.create(seed % self._seals.public_key.n, value, ops=self._ops)
        if self._ops is not None:
            self._ops.add("hm1", 2)  # certificate + temporal seed
        return SECOAMaxRecord(
            epoch=epoch,
            value=value,
            winner=self.source_id,
            certificate=certificate,
            seal=seal,
            seal_bytes=self._seals.seal_bytes,
        )


class SECOAMaxAggregator(AggregatorRole):
    """Keeps the max, rolls the losers' SEALs to it, folds everything."""

    def __init__(self, seal_context: SealContext, *, ops: OpCounter | None = None) -> None:
        self._seals = seal_context
        self._ops = ops

    def merge(self, epoch: int, psrs: Sequence[PartialStateRecord]) -> SECOAMaxRecord:
        if not psrs:
            raise ProtocolError("aggregator received no PSRs to merge")
        records: list[SECOAMaxRecord] = []
        for psr in psrs:
            if not isinstance(psr, SECOAMaxRecord):
                raise ProtocolError(
                    f"SECOA_M aggregator received foreign PSR {type(psr).__name__}"
                )
            if psr.epoch != epoch:
                raise ProtocolError(
                    f"PSR epoch header {psr.epoch} does not match current epoch {epoch}"
                )
            records.append(psr)
        # Tied maxima go to the lowest source id: the winner, and so the
        # certificate the querier checks, never depends on arrival order.
        best = max(records, key=lambda r: (r.value, -r.winner))
        folded = self._seals.roll_and_fold(
            (r.seal for r in records), best.value, ops=self._ops
        )
        return SECOAMaxRecord(
            epoch=epoch,
            value=best.value,
            winner=best.winner,
            certificate=best.certificate,
            seal=folded,
            seal_bytes=best.seal_bytes,
        )


class SECOAMaxQuerier(QuerierRole):
    """Verifies the inflation certificate and recreates the aggregate SEAL.

    :meth:`evaluate` checks its reporting subset with
    :func:`~repro.protocols.base.validated_reporting_subset`, as every
    querier does: an empty subset, an id that is not an ``int``, an id
    outside ``[0, N)`` or a duplicate id raises
    :class:`~repro.errors.ProtocolError`.
    """

    def __init__(
        self,
        cert_keys: Sequence[bytes],
        seed_keys: Sequence[bytes],
        seal_context: SealContext,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        self._cert_keys = list(cert_keys)
        self._seed_keys = list(seed_keys)
        self._seals = seal_context
        self._ops = ops

    def evaluate(
        self,
        epoch: int,
        psr: PartialStateRecord,
        *,
        reporting_sources: Sequence[int] | None = None,
    ) -> EvaluationResult:
        if not isinstance(psr, SECOAMaxRecord):
            raise ProtocolError(f"SECOA_M querier received foreign PSR {type(psr).__name__}")
        subset = validated_reporting_subset(reporting_sources, len(self._cert_keys))
        contributors = list(range(len(self._cert_keys))) if subset is None else subset
        if psr.winner not in contributors:
            raise IntegrityError(f"claimed MAX winner {psr.winner} did not report this epoch")

        # Inflation check: the winner must have MACed exactly this value.
        expected_cert = inflation_certificate(self._cert_keys[psr.winner], 0, psr.value, epoch)
        if self._ops is not None:
            self._ops.add("hm1", 1)
        if not constant_time_eq(expected_cert, psr.certificate):
            raise IntegrityError(
                f"inflation certificate mismatch for claimed MAX {psr.value} at epoch {epoch}"
            )

        # Deflation check: recreate the aggregate SEAL from the seeds.
        if psr.seal.position != psr.value:
            raise IntegrityError(
                f"SEAL position {psr.seal.position} does not match reported MAX {psr.value}"
            )
        seeds = [
            bytes_to_int(temporal_seed_bytes(self._seed_keys[i], 0, epoch))
            % self._seals.public_key.n
            for i in contributors
        ]
        if self._ops is not None:
            self._ops.add("hm1", len(contributors))
        reference = self._seals.reference_seal(seeds, psr.value, ops=self._ops)
        if reference.value != psr.seal.value:
            raise IntegrityError(f"aggregate SEAL mismatch at epoch {epoch} (deflation or forgery)")

        return EvaluationResult(
            value=psr.value,
            epoch=epoch,
            verified=True,
            exact=True,
            extras={"winner": psr.winner, "contributors": len(contributors)},
        )


class SECOAMaxProtocol(SecureAggregationProtocol):
    """Protocol facade registered as ``"secoa_m"`` (MAX queries)."""

    name = "secoa_m"
    exact = True
    provides_confidentiality = False
    provides_integrity = True

    def __init__(
        self,
        num_sources: int,
        *,
        rsa_bits: int = 1024,
        public_exponent: int = 3,
        seed: int | None = None,
    ) -> None:
        super().__init__(num_sources)
        self.keypair = _cached_keypair(rsa_bits, public_exponent, seed)
        self.seal_context = SealContext(self.keypair.public)
        self.cert_keys = _generate_keys(num_sources, seed, "secoa-cert-keys")
        self.seed_keys = _generate_keys(num_sources, seed, "secoa-seed-keys")

    def create_source(self, source_id: int, *, ops: OpCounter | None = None) -> SECOAMaxSource:
        self._check_source_id(source_id)
        return SECOAMaxSource(
            source_id,
            self.cert_keys[source_id],
            self.seed_keys[source_id],
            self.seal_context,
            ops=ops,
        )

    def create_aggregator(self, *, ops: OpCounter | None = None) -> SECOAMaxAggregator:
        return SECOAMaxAggregator(self.seal_context, ops=ops)

    def create_querier(self, *, ops: OpCounter | None = None) -> SECOAMaxQuerier:
        return SECOAMaxQuerier(self.cert_keys, self.seed_keys, self.seal_context, ops=ops)

    def wire_codec(self) -> "SECOAMaxCodec":
        """Byte codec bound to this instance's SEAL width."""
        from repro.wire.codecs import SECOAMaxCodec

        return SECOAMaxCodec(seal_bytes=self.seal_context.seal_bytes)


register_protocol("secoa_m", SECOAMaxProtocol)

# Re-exported for secoa_sum's use.
_aggregate_certificates = aggregate_certificates
