"""Setup-phase key material and temporal derivations (paper Section IV-A).

At setup the querier generates a master key ``K`` (known to *every*
source) and per-source keys ``k_1 … k_N`` (each known only to its
source), all 20 bytes, plus the public prime ``p``.  Every epoch the
parties derive:

* ``K_t   = HM256(K, t)``  — the shared multiplier key (32 bytes);
* ``k_i,t = HM256(k_i, t)`` — source ``i``'s one-time pad key;
* ``ss_i,t = HM1(k_i, t)``  — source ``i``'s secret share (20 bytes).

``K_t`` must be invertible mod ``p``; the digest reduces to 0 with
probability ~2^-256, but the code is total: it re-derives with an
appended retry counter (documented deviation, DESIGN.md §4).  The retry
input ``encode_epoch(t) ∥ r`` goes through the same keyed PRF as ``t``.

Each derivation runs on a :class:`~repro.crypto.prf.PRF` that holds its
key's HMAC state: the key schedule is paid on the PRF's first
evaluation, and every later epoch costs only the HMAC of the 8-byte
epoch.  Constructing key material builds ``2N+1`` PRFs — one per
``(key, hash)`` pair — but hashes nothing, so setup cost does not grow
with the keyed state.  They are the only PRFs a deployment builds: a
source derives on the very objects the querier does, so the first epoch
pays ``2N+1`` key schedules, not one per party holding a key.

Each role call encodes its epoch once (:func:`~repro.crypto.prf.encode_epoch`)
and passes those bytes to :meth:`~repro.crypto.prf.PRF.evaluate` for
every derivation it makes: :meth:`SIESKeyMaterial.epoch_material` walks
all of an epoch's contributors over one encoding, summing the pads and
reducing the sum mod ``p`` once, at the end.

:class:`SIESKeyMaterial` is the *querier's* view (it owns everything).
Sources receive :class:`SourceKeys` — only ``(K, k_i, p)`` and the
material's PRFs keyed with ``K`` and ``k_i``, which is what the attack
model assumes a compromised source can leak.
"""

from __future__ import annotations

import secrets
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from typing import NamedTuple

from repro.crypto.prf import PRF, encode_epoch
from repro.errors import KeyMaterialError
from repro.utils.bytesops import bytes_to_int
from repro.utils.rng import DeterministicRandom
from repro.utils.validation import check_positive_int

__all__ = ["SourceKeys", "SIESKeyMaterial", "KEY_BYTES"]

#: The paper sets the key size to 20 bytes (Section IV-A).
KEY_BYTES = 20


def _temporal_int(prf: PRF, encoded: bytes, modulus: int, *, require_invertible: bool) -> int:
    """``PRF(t)`` as an integer for the encoded epoch *encoded*
    (:func:`~repro.crypto.prf.encode_epoch`); optionally re-derived until
    non-zero mod p."""
    value = int.from_bytes(prf.evaluate(encoded), "big")
    if not require_invertible:
        return value
    retry = 0
    while value % modulus == 0:  # probability ~2^-256; loop for totality
        retry += 1
        value = int.from_bytes(prf.evaluate(encoded + bytes([retry & 0xFF])), "big")
    return value


class SourceKeys(NamedTuple):
    """What source ``i`` holds after setup: ``(K, k_i, p)``.

    The three PRFs are the key material's own, keyed with ``K`` and
    ``k_i`` (:meth:`SIESKeyMaterial.keys_for_source`); a tuple, so the
    bundle is immutable and costs one allocation per source.  Their hash
    backend is the one in force when the key material was built, not
    when the bundle is handed out.
    """

    source_id: int
    master_key: bytes
    source_key: bytes
    p: int
    #: Produces ``K_t`` (HM256 keyed with ``K``).
    master_prf: PRF
    #: Produces ``k_i,t`` (HM256 keyed with ``k_i``).
    pad_prf: PRF
    #: Produces ``ss_i,t`` (HM1 keyed with ``k_i``).
    share_prf: PRF


class SIESKeyMaterial:
    """The querier's complete key state for one SIES deployment."""

    def __init__(self, master_key: bytes, source_keys: list[bytes], p: int) -> None:
        if len(master_key) == 0:
            raise KeyMaterialError("master key must be non-empty")
        if not source_keys:
            raise KeyMaterialError("at least one source key is required")
        distinct = set(source_keys)
        if len(distinct) != len(source_keys):
            raise KeyMaterialError("source keys must be pairwise distinct")
        if b"" in distinct:
            raise KeyMaterialError("source keys must be non-empty")
        if master_key in distinct:
            # K_t would equal that source's pad k_i,t: every source could strip it.
            raise KeyMaterialError("the master key must differ from every source key")
        self.master_key = master_key
        self.source_keys = list(source_keys)
        self.p = p
        self._master_prf = PRF(master_key, "sha256")
        self._pad_prfs = [PRF(k, "sha256") for k in source_keys]
        self._share_prfs = [PRF(k, "sha1") for k in source_keys]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        num_sources: int,
        p: int,
        *,
        key_bytes: int = KEY_BYTES,
        seed: int | None = None,
    ) -> "SIESKeyMaterial":
        """Generate fresh keys — the setup phase.

        With *seed* the keys are reproducible (simulation use); without
        it they come from the OS CSPRNG.
        """
        check_positive_int("num_sources", num_sources)
        check_positive_int("key_bytes", key_bytes)
        if seed is None:
            draw = partial(secrets.token_bytes, key_bytes)
        else:
            draw = partial(DeterministicRandom(seed, "sies-keys").random_bytes, key_bytes)
        master = draw()
        # The first N distinct draws that differ from K, in draw order:
        # draw N at once, then one at a time while a repeat (astronomically
        # unlikely at 20 bytes) left a key short.
        distinct = dict.fromkeys([draw() for _ in range(num_sources)])
        distinct.pop(master, None)
        while len(distinct) < num_sources:
            distinct.setdefault(draw())
            distinct.pop(master, None)
        return cls(master, list(distinct), p)

    @property
    def num_sources(self) -> int:
        return len(self.source_keys)

    def _check_source(self, source_id: int) -> int:
        # Python's negative indexing would silently alias another source.
        if not 0 <= source_id < self.num_sources:
            raise KeyMaterialError(f"no key material for source {source_id}")
        return source_id

    def keys_for_source(self, source_id: int) -> SourceKeys:
        """The registration bundle delivered to source ``source_id``,
        carrying this material's PRFs for ``K`` and ``k_i``."""
        if not 0 <= source_id < len(self.source_keys):
            self._check_source(source_id)
        # The tuple's own constructor: skips the named tuple's Python-level __new__.
        return tuple.__new__(
            SourceKeys,
            (
                source_id,
                self.master_key,
                self.source_keys[source_id],
                self.p,
                self._master_prf,
                self._pad_prfs[source_id],
                self._share_prfs[source_id],
            ),
        )

    # ------------------------------------------------------------------
    # Temporal derivations (querier side)
    # ------------------------------------------------------------------

    def master_key_at(self, epoch: int) -> int:
        """``K_t`` as an invertible integer mod ``p`` (one HM256)."""
        return _temporal_int(
            self._master_prf, encode_epoch(epoch), self.p, require_invertible=True
        )

    def source_pad_at(self, source_id: int, epoch: int) -> int:
        """``k_i,t`` as an integer (one HM256)."""
        return bytes_to_int(self._pad_prfs[self._check_source(source_id)].at_epoch(epoch))

    def share_digest_at(self, source_id: int, epoch: int) -> bytes:
        """``ss_i,t`` digest bytes (one HM1); layouts truncate as needed."""
        return self._share_prfs[self._check_source(source_id)].at_epoch(epoch)

    def epoch_material(
        self,
        epoch: int,
        contributors: Sequence[int] | None,
        share_value: Callable[[bytes], int],
    ) -> tuple[int, int, int]:
        """``(K_t, Σ k_i,t mod p, Σ share_value(ss_i,t))`` over *contributors*.

        One HM256 for ``K_t`` and one HM256 plus one HM1 per contributor,
        all over a single encoding of *epoch*; the pad sum is reduced
        mod ``p`` once, at the end.  ``None`` means every source.  The
        ids are taken as given — the querier validates its reporting
        subset up front — except that a subset reaching outside
        ``[0, N)`` raises :class:`~repro.errors.KeyMaterialError`, checked
        once for the whole subset rather than per derivation.
        """
        encoded = encode_epoch(epoch)
        k_t = _temporal_int(self._master_prf, encoded, self.p, require_invertible=True)
        if contributors is None:
            pairs: Iterable[tuple[PRF, PRF]] = zip(self._pad_prfs, self._share_prfs)
        else:
            if contributors and (min(contributors) < 0 or max(contributors) >= self.num_sources):
                raise KeyMaterialError(
                    f"reporting subset reaches outside the {self.num_sources} keyed sources"
                )
            pad_prfs, share_prfs = self._pad_prfs, self._share_prfs
            pairs = ((pad_prfs[sid], share_prfs[sid]) for sid in contributors)
        pad_sum = 0
        share_sum = 0
        for pad_prf, share_prf in pairs:
            pad_sum += int.from_bytes(pad_prf.evaluate(encoded), "big")
            share_sum += share_value(share_prf.evaluate(encoded))
        return k_t, pad_sum % self.p, share_sum
