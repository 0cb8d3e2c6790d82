"""SIES evaluation phase — what runs at the querier (paper Section IV-A).

Given the final ``PSR_f,t`` from the sink:

1. recompute ``K_t`` and every contributing ``k_i,t`` / ``ss_i,t``
   (``N+1`` HM256 + ``N`` HM1 evaluations);
2. decrypt ``m_f,t = (PSR_f,t − Σ k_i,t) · K_t^{-1} mod p``
   (``2N−1`` additions, one modular inverse, one multiplication —
   Eq. 9);
3. split ``m_f,t`` into the SUM result and the aggregated secret
   ``s_t`` (Fig. 3);
4. accept iff ``s_t = Σ ss_i,t`` — a single check that provides both
   integrity (Theorem 2) and freshness (Theorem 4).

Node failures (Section IV-B, Discussion): when told which sources
reported, the querier sums keys/shares over that subset only.  The
reporting subset is validated up front, as every querier does
(:func:`~repro.protocols.base.validated_reporting_subset`) — an empty
subset, an id that is not an ``int``, an out-of-range id or a duplicate
id would make the decryption silently produce garbage, so each raises
:class:`~repro.errors.ProtocolError` instead.

Step 1 is one :meth:`~repro.core.keys.SIESKeyMaterial.epoch_material`
call: the epoch is encoded once for the whole evaluation, every
contributor's pad and share is derived over those bytes, and the pad
sum is reduced mod ``p`` once.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.keys import SIESKeyMaterial
from repro.core.layout import MessageLayout
from repro.core.source import SIESRecord
from repro.crypto.modular import modinv
from repro.errors import LayoutError, ProtocolError, VerificationFailure
from repro.protocols.base import (
    EvaluationResult,
    OpCounter,
    PartialStateRecord,
    QuerierRole,
    validated_reporting_subset,
)
from repro.utils.bytesops import constant_time_eq, int_to_bytes

__all__ = ["SIESQuerier"]


class SIESQuerier(QuerierRole):
    """Holds all key material; decrypts and verifies the final PSR.

    :meth:`evaluate` checks its reporting subset with
    :func:`~repro.protocols.base.validated_reporting_subset`, as every
    querier does: an empty subset, an id that is not an ``int``, an id
    outside ``[0, N)`` or a duplicate id raises
    :class:`~repro.errors.ProtocolError`.

    Parameters
    ----------
    keys:
        The querier's complete key state.
    layout:
        The Fig. 2 message layout shared with the sources.
    ops:
        Optional ledger for primitive-operation counts.
    """

    def __init__(
        self,
        keys: SIESKeyMaterial,
        layout: MessageLayout,
        *,
        ops: OpCounter | None = None,
    ) -> None:
        self._keys = keys
        self._layout = layout
        self._p = keys.p
        self._ops = ops

    def evaluate(
        self,
        epoch: int,
        psr: PartialStateRecord,
        *,
        reporting_sources: Sequence[int] | None = None,
    ) -> EvaluationResult:
        if not isinstance(psr, SIESRecord):
            raise ProtocolError(f"SIES querier received foreign PSR {type(psr).__name__}")
        contributors = validated_reporting_subset(reporting_sources, self._keys.num_sources)
        n = self._keys.num_sources if contributors is None else len(contributors)

        # --- Recompute temporal material (N+1 HM256, N HM1) -------------
        k_t, pad_sum, share_sum = self._keys.epoch_material(
            epoch, contributors, self._layout.truncate_share
        )
        if self._ops is not None:
            self._ops.add("hm256", n + 1)
            self._ops.add("hm1", n)

        # --- Decrypt the aggregate ---------------------------------------
        k_t_inverse = modinv(k_t, self._p)
        aggregate_plaintext = ((psr.ciphertext - pad_sum) * k_t_inverse) % self._p

        if self._ops is not None:
            self._ops.add("add32", 2 * n - 1)
            self._ops.add("inv32", 1)
            self._ops.add("mul32", 1)

        # --- Split and verify (Fig. 3) ------------------------------------
        try:
            result, extracted_secret = self._layout.decode(aggregate_plaintext)
        except LayoutError as exc:
            # A tampered ciphertext decrypts to a near-uniform residue
            # whose bit length exceeds the layout — that *is* a failed
            # verification, not a caller error.
            raise VerificationFailure(
                f"aggregate plaintext does not fit the message layout ({exc})", epoch=epoch
            ) from exc

        # Constant-time: a short-circuiting != would leak how many
        # leading share bytes an attacker's forgery got right.
        share_width = (self._layout.secret_bits + 7) // 8
        if not constant_time_eq(
            int_to_bytes(extracted_secret, share_width),
            int_to_bytes(share_sum, share_width),
        ):
            raise VerificationFailure(
                "secret mismatch: extracted s_t does not equal the recomputed share sum "
                "(result tampered with, incomplete, or replayed from another epoch)",
                epoch=epoch,
            )
        return EvaluationResult(
            value=result,
            epoch=epoch,
            verified=True,
            exact=True,
            extras={"secret": extracted_secret, "contributors": n},
        )
