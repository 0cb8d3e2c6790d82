"""Amortized per-epoch key schedules with LRU caching.

The SIES querier re-derives ``K_t``, every contributing ``k_i,t`` and
every ``ss_i,t`` from scratch on each evaluation — ``N+1`` HM256 and
``N`` HM1 calls per epoch (paper Eq. 9).  Those derivations depend only
on ``(long-lived key, epoch)``, so a querier that answers several
queries against the same epoch or re-verifies a window of epochs pays
the full key-schedule cost repeatedly for byte-identical outputs.

:class:`KeyScheduleCache` memoizes the three derivation streams behind
an LRU bound:

* the cache is **transparent** — it returns bit-for-bit the values the
  underlying provider would (``tests/property/test_keycache_properties.py``
  pins this down, including across eviction and re-prefetch);
* the cache is **lazy per entry** — ``k_i,t`` / ``ss_i,t`` are derived
  per source on demand, so an epoch with a reporting subset costs
  exactly the subset's derivations, never all ``N``;
* HMAC work is charged to an op counter **only when a derivation
  actually runs** — a warm cache therefore shows up as strictly fewer
  ``hm256``/``hm1`` counts per evaluation, which is the invariant the
  key-cache amortization tests assert.

``prefetch(epochs)`` fills whole epoch windows ahead of evaluation so
the key-schedule cost is paid once per window (and can be paid off the
latency-critical path).  The cache deliberately lives in the crypto
layer: it only needs the three derivation methods, not the SIES
protocol objects, so any schedule provider with the same shape (e.g. a
future sharded key store) can sit behind it.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import ParameterError
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover — typing only, keeps crypto below protocols
    from repro.protocols.base import OpCounter

__all__ = ["KeyScheduleProvider", "KeyScheduleCache"]


class KeyScheduleProvider(Protocol):
    """Anything that can derive the SIES temporal key streams.

    :class:`repro.core.keys.SIESKeyMaterial` is the canonical provider;
    the cache only relies on this shape.
    """

    @property
    def num_sources(self) -> int: ...

    def master_key_at(self, epoch: int) -> int: ...

    def source_pad_at(self, source_id: int, epoch: int) -> int: ...

    def share_digest_at(self, source_id: int, epoch: int) -> bytes: ...


@dataclass
class _EpochEntry:
    """Lazily-filled schedule for one epoch."""

    master: int | None = None
    pads: dict[int, int] = field(default_factory=dict)
    shares: dict[int, bytes] = field(default_factory=dict)


class KeyScheduleCache:
    """LRU cache over a provider's per-epoch key schedules.

    Parameters
    ----------
    provider:
        The key material whose derivations are memoized.
    capacity:
        Maximum number of *epochs* held; least-recently-used epochs are
        evicted first.  Size it to at least the epoch window a querier
        prefetches and evaluates (see ``docs/api_overview.md``).
    ops:
        Default op counter charged for derivations the cache actually
        performs (``hm256`` for ``K_t``/``k_i,t``, ``hm1`` for
        ``ss_i,t``).  Each method also accepts a per-call ``ops``
        override so the querier can charge its own ledger.
    """

    def __init__(
        self,
        provider: KeyScheduleProvider,
        *,
        capacity: int = 128,
        ops: "OpCounter | None" = None,
    ) -> None:
        check_positive_int("capacity", capacity)
        self._provider = provider
        self._capacity = capacity
        self._ops = ops
        self._entries: "OrderedDict[int, _EpochEntry]" = OrderedDict()
        #: Individual derivation requests served from memory.
        self.hits = 0
        #: Individual derivation requests that ran the underlying PRF.
        self.misses = 0
        #: Epoch entries discarded to respect ``capacity``.
        self.evictions = 0
        #: Evictions of epochs belonging to the prefetch window being
        #: warmed — work paid for and thrown away in the same call.
        self.thrash = 0
        self._prefetch_window: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_sources(self) -> int:
        return self._provider.num_sources

    @property
    def cached_epochs(self) -> tuple[int, ...]:
        """Epochs currently held, least- to most-recently used."""
        return tuple(self._entries)

    def __contains__(self, epoch: int) -> bool:
        return epoch in self._entries

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "thrash": self.thrash,
            "cached_epochs": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every cached schedule (hit/miss counters are kept)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def master_key_at(self, epoch: int, *, ops: "OpCounter | None" = None) -> int:
        """``K_t`` — cached; one HM256 on miss."""
        entry = self._entry(epoch)
        if entry.master is None:
            entry.master = self._provider.master_key_at(epoch)
            self.misses += 1
            self._charge(ops, "hm256")
        else:
            self.hits += 1
        return entry.master

    def source_pad_at(self, source_id: int, epoch: int, *, ops: "OpCounter | None" = None) -> int:
        """``k_i,t`` — cached per source; one HM256 on miss."""
        self._check_source(source_id)
        entry = self._entry(epoch)
        pad = entry.pads.get(source_id)
        if pad is None:
            pad = self._provider.source_pad_at(source_id, epoch)
            entry.pads[source_id] = pad
            self.misses += 1
            self._charge(ops, "hm256")
        else:
            self.hits += 1
        return pad

    def share_digest_at(
        self, source_id: int, epoch: int, *, ops: "OpCounter | None" = None
    ) -> bytes:
        """``ss_i,t`` digest — cached per source; one HM1 on miss."""
        self._check_source(source_id)
        entry = self._entry(epoch)
        share = entry.shares.get(source_id)
        if share is None:
            share = self._provider.share_digest_at(source_id, epoch)
            entry.shares[source_id] = share
            self.misses += 1
            self._charge(ops, "hm1")
        else:
            self.hits += 1
        return share

    def prefetch(
        self,
        epochs: Iterable[int],
        source_ids: Sequence[int] | None = None,
        *,
        ops: "OpCounter | None" = None,
        strict: bool = False,
    ) -> None:
        """Warm the cache for a window of epochs.

        Derives ``K_t`` plus ``k_i,t``/``ss_i,t`` for every source in
        *source_ids* (all sources when ``None``) at every epoch, paying
        only for entries not already cached.

        A window larger than the cache capacity *thrashes*: earliest
        epochs are evicted while the window is still being warmed, so
        the derivations just paid for are thrown away.  That condition
        raises :class:`~repro.errors.ParameterError` when ``strict`` is
        true and emits a :class:`RuntimeWarning` otherwise; either way
        the per-call waste is counted in ``stats()["thrash"]``.
        """
        window = list(epochs)
        distinct = frozenset(window)
        if len(distinct) > self._capacity:
            detail = (
                f"prefetch window of {len(distinct)} distinct epochs exceeds the "
                f"cache capacity of {self._capacity}: epochs warmed first are "
                "evicted before the window finishes (thrash) — raise capacity "
                "or shrink the window"
            )
            if strict:
                raise ParameterError(detail)
            warnings.warn(detail, RuntimeWarning, stacklevel=2)
        ids = range(self._provider.num_sources) if source_ids is None else list(source_ids)
        self._prefetch_window = distinct
        try:
            for epoch in window:
                self.master_key_at(epoch, ops=ops)
                for source_id in ids:
                    self.source_pad_at(source_id, epoch, ops=ops)
                    self.share_digest_at(source_id, epoch, ops=ops)
        finally:
            self._prefetch_window = frozenset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _entry(self, epoch: int) -> _EpochEntry:
        entry = self._entries.get(epoch)
        if entry is None:
            entry = _EpochEntry()
            self._entries[epoch] = entry
            if len(self._entries) > self._capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evictions += 1
                if evicted in self._prefetch_window:
                    self.thrash += 1
        else:
            self._entries.move_to_end(epoch)
        return entry

    def _check_source(self, source_id: int) -> None:
        if not 0 <= source_id < self._provider.num_sources:
            raise ParameterError(
                f"source_id must be in [0, {self._provider.num_sources}), got {source_id}"
            )

    def _charge(self, ops: "OpCounter | None", name: str, count: int = 1) -> None:
        counter = ops if ops is not None else self._ops
        if counter is not None:
            counter.add(name, count)
