"""Abstract interfaces for secure in-network aggregation protocols.

The paper's aggregation process (Section III-A) has three phases:

* **Initialization** ``I`` at each source: raw value → partial state
  record (PSR);
* **Merging** ``M`` at each aggregator: children's PSRs → one PSR;
* **Evaluation** ``E`` at the querier: final PSR → verified result.

This module fixes those phase signatures as abstract roles plus a
factory (:class:`SecureAggregationProtocol`) that performs the setup
phase (key generation and distribution) and hands out role objects.
It also defines :class:`OpCounter`, the operation-count ledger that
backs the analytic cost models of Section V, :class:`OpCosts`, a
fixed bundle of counts a role validates once and charges per call, and
:func:`validated_reporting_subset`, the one check every querier makes
of the reporting subset it is handed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ParameterError, ProtocolError

if TYPE_CHECKING:
    from repro.wire.codec import PSRCodec

__all__ = [
    "PartialStateRecord",
    "EvaluationResult",
    "OpCounter",
    "OpCosts",
    "SourceRole",
    "AggregatorRole",
    "QuerierRole",
    "SecureAggregationProtocol",
    "validated_reporting_subset",
]


class PartialStateRecord(ABC):
    """A protocol-specific PSR.

    Concrete PSRs must also expose an ``epoch`` attribute: it models the
    plaintext epoch header a real packet would carry (and that the wire
    codec writes into the frame header).  Being a header it is
    *attacker-controlled* — protocols must not trust it for security
    (SIES derives freshness from the shares instead, Theorem 4).

    On the wire a PSR travels as a byte frame produced by the protocol's
    :class:`repro.wire.codec.PSRCodec` (see :meth:`SecureAggregationProtocol.
    wire_codec`); ``wire_size()`` remains the *analytic* payload size the
    paper's communication model counts, cross-checked against the real
    encoding on every transmission.
    """

    # No instance dict of its own, so a subclass may declare slots.
    __slots__ = ()

    #: Epoch header (set by subclasses; plaintext metadata, untrusted).
    epoch: int

    @abstractmethod
    def wire_size(self) -> int:
        """Analytic serialized size in bytes — drives Table V / communication cost."""


@dataclass
class EvaluationResult:
    """Outcome of the querier's evaluation phase.

    Attributes
    ----------
    value:
        The (integer-domain) aggregate reported to the application.
    epoch:
        Epoch the result belongs to.
    verified:
        True when the protocol's integrity check passed.  Protocols
        without integrity (CMT) always report False.
    exact:
        True for exact schemes (SIES, CMT); False for sketch-based
        approximations (SECOA_S), whose ``value`` is an estimate.
    extras:
        Protocol-specific diagnostics (e.g. SECOA_S's mean sketch value).
    """

    value: int
    epoch: int
    verified: bool
    exact: bool
    extras: dict[str, Any] = field(default_factory=dict)


# Operation names recognized by the cost models (Section V / Table II).
OP_NAMES = (
    "hm1",        # HMAC-SHA1 evaluation (C_HM1)
    "hm256",      # HMAC-SHA256 evaluation (C_HM256)
    "add20",      # 20-byte modular addition (C_A20)
    "add32",      # 32-byte modular addition (C_A32)
    "mul32",      # 32-byte modular multiplication (C_M32)
    "mul128",     # 128-byte modular multiplication (C_M128)
    "inv32",      # 32-byte modular inverse (C_MI32)
    "rsa",        # RSA encryption (C_RSA)
    "sketch",     # one sketch insertion (C_sk)
)


def _check_op(op: str, count: int) -> None:
    if op not in OP_NAMES:
        raise ParameterError(f"unknown operation {op!r}; expected one of {OP_NAMES}")
    if count < 0:
        raise ParameterError(f"operation count must be non-negative, got {count}")


class OpCosts:
    """A fixed bundle of operation counts, validated once when built.

    A role whose per-call cost is constant (a SIES source's Eq. 3) builds
    one and charges it with :meth:`OpCounter.charge` on every call, in
    the order the counts were given.
    """

    __slots__ = ("items",)

    def __init__(self, **counts: int) -> None:
        for op, count in counts.items():
            _check_op(op, count)
        #: ``(operation, count)`` pairs, in the order given.
        self.items: tuple[tuple[str, int], ...] = tuple(counts.items())


@dataclass
class OpCounter:
    """Ledger of primitive-operation counts for one party's work.

    Role implementations increment this as they compute, so every
    experiment can report a *modeled* cost (counts × measured Table II
    constants) next to the measured wall-clock time, mirroring how the
    paper validates its cost models.
    """

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, op: str, count: int = 1) -> None:
        _check_op(op, count)
        self.counts[op] = self.counts.get(op, 0) + count

    def charge(self, costs: OpCosts) -> None:
        """Add every count of *costs* (validated when it was built)."""
        counts = self.counts
        for op, count in costs.items:
            counts[op] = counts.get(op, 0) + count

    def get(self, op: str) -> int:
        return self.counts.get(op, 0)

    def merge(self, other: "OpCounter") -> None:
        for op, count in other.counts.items():
            self.counts[op] = self.counts.get(op, 0) + count

    def reset(self) -> None:
        self.counts.clear()

    def copy(self) -> "OpCounter":
        return OpCounter(counts=dict(self.counts))


def validated_reporting_subset(
    reporting_sources: Sequence[int] | None, num_sources: int
) -> list[int] | None:
    """The reporting subset as a list of source ids (``None``: all), validated.

    A wrong subset does not fail loudly on its own: a querier subtracts
    the wrong pads, sums the wrong seeds or indexes past its keys, and
    either rejects an honest result or reports garbage as exact.  These
    are caller errors, not attacks, so every querier calls this first
    and each raises :class:`~repro.errors.ProtocolError`: an empty
    subset; then, id by id, an id that is not an ``int`` (``bool``
    included), an id outside ``[0, num_sources)`` (negative ids
    included) and a duplicate id.
    """
    if reporting_sources is None:
        return None
    contributors = list(reporting_sources)
    if not contributors:
        raise ProtocolError("cannot evaluate an epoch with no reporting sources")
    seen: set[int] = set()
    for source_id in contributors:
        if isinstance(source_id, bool) or not isinstance(source_id, int):
            raise ProtocolError(f"reporting source id {source_id!r} is not an int")
        if not 0 <= source_id < num_sources:
            raise ProtocolError(
                f"reporting source id {source_id} is outside [0, {num_sources})"
            )
        if source_id in seen:
            raise ProtocolError(
                f"duplicate reporting source id {source_id}: each source contributes "
                "exactly once per epoch"
            )
        seen.add(source_id)
    return contributors


class SourceRole(ABC):
    """Initialization phase ``I`` — runs on a source sensor."""

    #: Identifier of the source within the protocol instance.
    source_id: int

    @abstractmethod
    def initialize(self, epoch: int, value: int) -> PartialStateRecord:
        """Produce the PSR for this source's *value* at *epoch*."""


class AggregatorRole(ABC):
    """Merging phase ``M`` — runs on an aggregator sensor."""

    @abstractmethod
    def merge(self, epoch: int, psrs: Sequence[PartialStateRecord]) -> PartialStateRecord:
        """Fuse the children's PSRs into a single PSR."""

    def finalize_for_querier(self, psr: PartialStateRecord) -> PartialStateRecord:
        """Extra work the *sink* performs before the hop to the querier.

        Identity for most schemes; SECOA's root aggregator folds SEALs
        that sit at the same chain position here, shrinking the A–Q
        message (paper Section II-D and Eq. 11).
        """
        return psr


class QuerierRole(ABC):
    """Evaluation phase ``E`` — runs at the querier."""

    @abstractmethod
    def evaluate(
        self,
        epoch: int,
        psr: PartialStateRecord,
        *,
        reporting_sources: Sequence[int] | None = None,
    ) -> EvaluationResult:
        """Extract and verify the aggregate from the final PSR.

        ``reporting_sources`` lists the source ids that contributed this
        epoch (paper Section IV-B, node failures); ``None`` means all.
        Every querier validates it with :func:`validated_reporting_subset`
        before any other use, so a malformed subset raises
        :class:`~repro.errors.ProtocolError` on every protocol.
        Raises a :class:`repro.errors.SecurityError` subclass when a
        protocol with integrity detects tampering or replay.
        """


class SecureAggregationProtocol(ABC):
    """Factory for the three roles plus the setup phase.

    A protocol instance owns all key material (it plays the querier's
    role from the setup phase of the paper: generating keys and manually
    registering them to the parties).  Role objects hold only the
    material their party would legitimately possess, which the attack
    scenarios rely on.
    """

    #: Short machine name, e.g. ``"sies"``, ``"cmt"``, ``"secoa_s"``.
    name: str = "abstract"
    #: Whether the scheme answers SUM exactly.
    exact: bool = True
    #: Security properties, for reporting.
    provides_confidentiality: bool = False
    provides_integrity: bool = False

    def __init__(self, num_sources: int) -> None:
        if num_sources <= 0:
            raise ParameterError(f"num_sources must be positive, got {num_sources}")
        self.num_sources = num_sources

    @abstractmethod
    def create_source(self, source_id: int, *, ops: OpCounter | None = None) -> SourceRole:
        """Role for source ``source_id`` (0-based, < ``num_sources``)."""

    @abstractmethod
    def create_aggregator(self, *, ops: OpCounter | None = None) -> AggregatorRole:
        """Role for an aggregator (aggregators are stateless and keyless
        in SIES/CMT; SECOA aggregators hold only public material)."""

    @abstractmethod
    def create_querier(self, *, ops: OpCounter | None = None) -> QuerierRole:
        """Role for the querier, holding all verification material."""

    @abstractmethod
    def wire_codec(self) -> "PSRCodec":
        """The byte codec serializing this protocol's PSRs.

        Returns a :class:`repro.wire.codec.PSRCodec` bound to this
        instance's framing parameters (modulus width, sketch count…).
        Every substrate transmits real encoded frames with it: the
        simulators pass it to the :class:`~repro.network.channel.Channel`,
        the TCP cluster to its nodes.
        """

    def _check_source_id(self, source_id: int) -> int:
        if not 0 <= source_id < self.num_sources:
            raise ParameterError(
                f"source_id must be in [0, {self.num_sources}), got {source_id}"
            )
        return source_id
