"""The SIES protocol facade, registered as ``"sies"``.

Construction *is* the setup phase (paper Section IV-A): it generates
``K``, ``k_1 … k_N`` and the public prime ``p``, after which
:meth:`create_source` / :meth:`create_aggregator` /
:meth:`create_querier` hand each party exactly the material it would be
registered with — sources get ``(K, k_i, p)``, aggregators only ``p``,
the querier everything.

SIES provides all four security properties and exact answers::

    >>> from repro.core.protocol import SIESProtocol
    >>> protocol = SIESProtocol(num_sources=4, seed=7)
    >>> sources = [protocol.create_source(i) for i in range(4)]
    >>> psrs = [s.initialize(epoch=1, value=v) for s, v in zip(sources, [10, 20, 30, 40])]
    >>> merged = protocol.create_aggregator().merge(1, psrs)
    >>> protocol.create_querier().evaluate(1, merged).value
    100
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.aggregator import SIESAggregator
from repro.core.keys import SIESKeyMaterial
from repro.core.layout import MessageLayout
from repro.core.params import SIESParams
from repro.core.querier import SIESQuerier
from repro.core.source import SIESSource
from repro.errors import KeyMaterialError, ParameterError
from repro.protocols.base import OpCounter, SecureAggregationProtocol
from repro.protocols.registry import register_protocol

if TYPE_CHECKING:
    from repro.wire.codecs import SIESCodec

__all__ = ["SIESProtocol"]


class SIESProtocol(SecureAggregationProtocol):
    """Secure In-network processing of Exact SUM queries."""

    name = "sies"
    exact = True
    provides_confidentiality = True
    provides_integrity = True

    def __init__(
        self,
        num_sources: int,
        *,
        value_bytes: int = 4,
        share_bytes: int = 20,
        seed: int | None = None,
        max_possible_sum: int | None = None,
    ) -> None:
        """Run the setup phase.

        Parameters
        ----------
        num_sources:
            ``N``; fixes the pad width and the key count.
        value_bytes:
            4 (paper default) or 8 (footnote 1) — the SUM field width.
        share_bytes:
            Secret-share width; 20 in the paper (ablation knob).
        seed:
            Deterministic key generation for reproducible simulations;
            ``None`` draws keys from the OS CSPRNG.
        max_possible_sum:
            When the workload's worst-case SUM is known, pass it to get
            an immediate :class:`~repro.errors.LayoutError` instead of a
            silent capacity violation later.
        """
        super().__init__(num_sources)
        self.params = SIESParams(
            num_sources=num_sources, value_bytes=value_bytes, share_bytes=share_bytes
        )
        if max_possible_sum is not None:
            self.params.check_capacity(max_possible_sum)
        self.layout = MessageLayout.from_params(self.params)
        self.keys = SIESKeyMaterial.generate(num_sources, self.params.p, seed=seed)

    @property
    def p(self) -> int:
        """The public prime modulus (distributed to every party)."""
        return self.params.p

    @property
    def psr_bytes(self) -> int:
        """Wire size of every PSR (32 bytes at paper settings)."""
        return self.params.modulus_bytes

    def create_source(self, source_id: int, *, ops: OpCounter | None = None) -> SIESSource:
        try:
            keys = self.keys.keys_for_source(source_id)  # the one range check
        except KeyMaterialError:
            raise ParameterError(
                f"source_id must be in [0, {self.num_sources}), got {source_id}"
            ) from None
        return SIESSource(keys, self.layout, ops=ops)

    def create_aggregator(self, *, ops: OpCounter | None = None) -> SIESAggregator:
        return SIESAggregator(self.params.p, ops=ops)

    def wire_codec(self) -> "SIESCodec":
        """Byte codec framing this instance's ``|p|``-byte residues."""
        from repro.wire.codecs import SIESCodec

        return SIESCodec(self.params.modulus_bytes)

    def create_querier(self, *, ops: OpCounter | None = None) -> SIESQuerier:
        return SIESQuerier(self.keys, self.layout, ops=ops)


register_protocol("sies", SIESProtocol)
