"""SECOA_S — SECOA's approximate SUM protocol (paper Section II-D).

Reduction: a source with value ``v`` inserts ``v`` distinct items into
each of ``J`` distinct-count sketches (modeled cost ``J·v·C_sk``), then
runs SECOA_M per sketch: an inflation certificate and a SEAL at
position equal to the sketch level.  Aggregators take the per-sketch
maximum, roll-and-fold the SEALs, and carry the winning certificates;
the sink XORs the ``J`` winner certificates into one 20-byte aggregate
MAC and folds same-position SEALs (so only ``seals ≤ J`` distinct-
position SEALs reach the querier, Eq. 11).  The querier verifies both
certificate aggregates and the SEAL algebra, then estimates
``SUM ≈ 2^x̄``.

Wire accounting follows the paper's communication model exactly
(Eqs. 10–11): ``J`` one-byte sketch values, the SEALs, and one 20-byte
inflation certificate per edge.  Functionally our PSRs also carry
per-sketch winner ids/certificates on internal edges so that the XOR
aggregate remains verifiable after winner selection; the ICDE paper's
model does not count this metadata, and neither do we (documented in
DESIGN.md §5 — it does not affect any reported comparison, where
SECOA_S traffic is already 3 orders of magnitude above SIES).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.secoa.certificates import (
    aggregate_certificates,
    inflation_certificate,
    temporal_seed_bytes,
)
from repro.baselines.secoa.seal import Seal, SealContext
from repro.baselines.secoa.secoa_max import _cached_keypair, _generate_keys
from repro.baselines.secoa.sketch import SketchStrategy, estimate_sum, sample_sketch_level
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
from repro.utils.rng import derive_seed

if TYPE_CHECKING:
    from repro.wire.codecs import SECOASumCodec

__all__ = ["SECOASumRecord", "SECOASumProtocol", "PAPER_NUM_SKETCHES"]

#: J = 300 bounds the relative error within 10% w.p. 90% (Section VI).
PAPER_NUM_SKETCHES = 300

#: The paper's per-sketch-value wire size (Table II: S_sk = 1 byte).
SKETCH_VALUE_BYTES = 1
CERTIFICATE_BYTES = 20


@dataclass
class SECOASumRecord(PartialStateRecord):
    """A SECOA_S PSR.

    On internal edges ``seals`` has one entry per sketch and
    ``winner_certificates`` carries the per-sketch winning MACs; after
    the sink's :meth:`~SECOASumAggregator.finalize_for_querier` the
    SEALs are folded by position and only ``certificate`` (the XOR
    aggregate) remains.
    """

    epoch: int
    levels: list[int]
    winners: list[int]
    seals: list[Seal]
    seal_bytes: int
    winner_certificates: list[bytes] | None = None
    certificate: bytes | None = None

    def wire_size(self) -> int:
        """The paper's model: ``J·S_sk + |seals|·S_SEAL + S_inf``."""
        return (
            len(self.levels) * SKETCH_VALUE_BYTES
            + len(self.seals) * self.seal_bytes
            + CERTIFICATE_BYTES
        )


class SECOASumSource(SourceRole):
    """Builds ``J`` sketches of its value and protects each with SECOA_M."""

    def __init__(
        self,
        source_id: int,
        cert_key: bytes,
        seed_key: bytes,
        seal_context: SealContext,
        num_sketches: int,
        strategy: SketchStrategy,
        sketch_seed: int,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        self.source_id = source_id
        self._cert_key = cert_key
        self._seed_key = seed_key
        self._seals = seal_context
        self._num_sketches = num_sketches
        self._strategy = strategy
        self._sketch_seed = sketch_seed
        self._ops = ops

    def initialize(self, epoch: int, value: int) -> SECOASumRecord:
        if value < 0:
            raise ParameterError(f"SECOA_S aggregates non-negative integers, got {value}")
        n = self._seals.public_key.n
        levels: list[int] = []
        certificates: list[bytes] = []
        seals: list[Seal] = []
        for j in range(self._num_sketches):
            level = sample_sketch_level(
                value,
                strategy=self._strategy,
                seed=self._sketch_seed,
                labels=(str(self.source_id), str(epoch), str(j)),
                ops=self._ops,
            )
            levels.append(level)
            certificates.append(inflation_certificate(self._cert_key, j, level, epoch))
            seed = bytes_to_int(temporal_seed_bytes(self._seed_key, j, epoch)) % n
            seals.append(self._seals.create(seed, level, ops=self._ops))
        if self._ops is not None:
            # One certificate + one temporal seed per sketch (Eq. 2's 2·C_HM1).
            self._ops.add("hm1", 2 * self._num_sketches)
        return SECOASumRecord(
            epoch=epoch,
            levels=levels,
            winners=[self.source_id] * self._num_sketches,
            seals=seals,
            seal_bytes=self._seals.seal_bytes,
            winner_certificates=certificates,
        )


class SECOASumAggregator(AggregatorRole):
    """Per-sketch max + roll/fold; the sink additionally folds by position."""

    def __init__(self, seal_context: SealContext, *, ops: OpCounter | None = None) -> None:
        self._seals = seal_context
        self._ops = ops

    def merge(self, epoch: int, psrs: Sequence[PartialStateRecord]) -> SECOASumRecord:
        if not psrs:
            raise ProtocolError("aggregator received no PSRs to merge")
        records: list[SECOASumRecord] = []
        for psr in psrs:
            if not isinstance(psr, SECOASumRecord):
                raise ProtocolError(
                    f"SECOA_S aggregator received foreign PSR {type(psr).__name__}"
                )
            if psr.epoch != epoch:
                raise ProtocolError(
                    f"PSR epoch header {psr.epoch} does not match current epoch {epoch}"
                )
            if psr.winner_certificates is None:
                raise ProtocolError("internal-edge SECOA_S PSR lacks winner certificates")
            records.append(psr)
        num_sketches = len(records[0].levels)
        if any(len(r.levels) != num_sketches for r in records):
            raise ProtocolError("children disagree on the number of sketches")

        levels: list[int] = []
        winners: list[int] = []
        certificates: list[bytes] = []
        seals: list[Seal] = []
        for j in range(num_sketches):
            # Deterministic tie-break: highest level, then smallest
            # winner id — keeps the winner well-defined network-wide.
            best = max(records, key=lambda r: (r.levels[j], -r.winners[j]))
            target = best.levels[j]
            levels.append(target)
            winners.append(best.winners[j])
            if best.winner_certificates is None:
                raise ProtocolError("winning child record lacks winner certificates")
            certificates.append(best.winner_certificates[j])
            seals.append(
                self._seals.roll_and_fold((r.seals[j] for r in records), target, ops=self._ops)
            )
        return SECOASumRecord(
            epoch=epoch,
            levels=levels,
            winners=winners,
            seals=seals,
            seal_bytes=records[0].seal_bytes,
            winner_certificates=certificates,
        )

    def finalize_for_querier(self, psr: PartialStateRecord) -> SECOASumRecord:
        """The sink's step: XOR the winner MACs, fold SEALs by position."""
        if not isinstance(psr, SECOASumRecord):
            raise ProtocolError(f"cannot finalize foreign PSR {type(psr).__name__}")
        if psr.winner_certificates is None:
            raise ProtocolError("PSR was already finalized")
        return SECOASumRecord(
            epoch=psr.epoch,
            levels=psr.levels,
            winners=psr.winners,
            seals=self._seals.fold_by_position(psr.seals, ops=self._ops),
            seal_bytes=psr.seal_bytes,
            winner_certificates=None,
            certificate=aggregate_certificates(psr.winner_certificates),
        )


class SECOASumQuerier(QuerierRole):
    """Verifies certificates and SEAL algebra, then estimates ``2^x̄``.

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
        num_sketches: int,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        self._cert_keys = list(cert_keys)
        self._seed_keys = list(seed_keys)
        self._seals = seal_context
        self._num_sketches = num_sketches
        self._ops = ops

    def evaluate(
        self,
        epoch: int,
        psr: PartialStateRecord,
        *,
        reporting_sources: Sequence[int] | None = None,
    ) -> EvaluationResult:
        if not isinstance(psr, SECOASumRecord):
            raise ProtocolError(f"SECOA_S querier received foreign PSR {type(psr).__name__}")
        if psr.certificate is None:
            raise ProtocolError("querier expects a finalized PSR (aggregate certificate)")
        subset = validated_reporting_subset(reporting_sources, len(self._cert_keys))
        if len(psr.levels) != self._num_sketches:
            raise IntegrityError(
                f"expected {self._num_sketches} sketch values, got {len(psr.levels)}"
            )
        contributors = list(range(len(self._cert_keys))) if subset is None else subset
        contributor_set = set(contributors)
        n = self._seals.public_key.n

        # --- Inflation: recompute the J winning certificates, XOR, compare.
        expected: list[bytes] = []
        for j, (winner, level) in enumerate(zip(psr.winners, psr.levels)):
            if winner not in contributor_set:
                raise IntegrityError(f"sketch {j} claims non-reporting winner {winner}")
            expected.append(inflation_certificate(self._cert_keys[winner], j, level, epoch))
        if self._ops is not None:
            self._ops.add("hm1", self._num_sketches)
        if not constant_time_eq(aggregate_certificates(expected), psr.certificate):
            raise IntegrityError(f"aggregate inflation certificate mismatch at epoch {epoch}")

        # --- Deflation: collected SEALs rolled to x_max and folded must
        #     equal the reference SEAL built from all secret seeds.
        x_max = max(psr.levels)
        if not psr.seals:
            raise IntegrityError("finalized PSR carries no SEALs")
        if any(seal.position > x_max for seal in psr.seals):
            raise IntegrityError("collected SEAL sits beyond the maximum sketch value")
        collected = self._seals.roll_and_fold(psr.seals, x_max, ops=self._ops)

        seeds = [
            bytes_to_int(temporal_seed_bytes(self._seed_keys[i], j, epoch)) % n
            for i in contributors
            for j in range(self._num_sketches)
        ]
        if self._ops is not None:
            self._ops.add("hm1", len(seeds))
        reference = self._seals.reference_seal(seeds, x_max, ops=self._ops)
        if reference.value != collected.value:
            raise IntegrityError(f"aggregate SEAL mismatch at epoch {epoch} (deflation or forgery)")

        estimate = estimate_sum(psr.levels)
        return EvaluationResult(
            value=int(round(estimate)),
            epoch=epoch,
            verified=True,
            exact=False,
            extras={
                "estimate": estimate,
                "mean_level": sum(psr.levels) / len(psr.levels),
                "num_seals_collected": len(psr.seals),
                "contributors": len(contributors),
            },
        )


class SECOASumProtocol(SecureAggregationProtocol):
    """Protocol facade registered as ``"secoa_s"`` (approximate SUM)."""

    name = "secoa_s"
    exact = False
    provides_confidentiality = False
    provides_integrity = True

    def __init__(
        self,
        num_sources: int,
        *,
        num_sketches: int = PAPER_NUM_SKETCHES,
        rsa_bits: int = 1024,
        public_exponent: int = 3,
        strategy: SketchStrategy = SketchStrategy.CLOSED_FORM,
        seed: int | None = None,
    ) -> None:
        super().__init__(num_sources)
        if num_sketches <= 0:
            raise ParameterError(f"num_sketches must be positive, got {num_sketches}")
        self.num_sketches = num_sketches
        self.strategy = strategy
        self.keypair = _cached_keypair(rsa_bits, public_exponent, seed)
        self.seal_context = SealContext(self.keypair.public)
        self.cert_keys = _generate_keys(num_sources, seed, "secoa-s-cert-keys")
        self.seed_keys = _generate_keys(num_sources, seed, "secoa-s-seed-keys")
        self._sketch_seed = derive_seed(seed if seed is not None else 0, "secoa-s-sketches")

    def create_source(self, source_id: int, *, ops: OpCounter | None = None) -> SECOASumSource:
        self._check_source_id(source_id)
        return SECOASumSource(
            source_id,
            self.cert_keys[source_id],
            self.seed_keys[source_id],
            self.seal_context,
            self.num_sketches,
            self.strategy,
            self._sketch_seed,
            ops=ops,
        )

    def create_aggregator(self, *, ops: OpCounter | None = None) -> SECOASumAggregator:
        return SECOASumAggregator(self.seal_context, ops=ops)

    def create_querier(self, *, ops: OpCounter | None = None) -> SECOASumQuerier:
        return SECOASumQuerier(
            self.cert_keys, self.seed_keys, self.seal_context, self.num_sketches, ops=ops
        )

    def wire_codec(self) -> "SECOASumCodec":
        """Byte codec bound to this instance's ``J`` and SEAL width."""
        from repro.wire.codecs import SECOASumCodec

        return SECOASumCodec(
            num_sketches=self.num_sketches, seal_bytes=self.seal_context.seal_bytes
        )


register_protocol("secoa_s", SECOASumProtocol)
