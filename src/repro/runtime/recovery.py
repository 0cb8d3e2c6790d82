"""Loss-to-reported-failure recovery (paper Section III-B / IV-B).

The querier verifies ``s_t = Σ_{i∈R} ss_i,t`` over *any* reported
subset ``R`` — the property that makes SIES robust to node failures.
The runtime exploits it for packet loss too: every PSR travels with a
**manifest**, the exact set of source ids whose contributions were
merged into it.  Sources start with the singleton manifest; aggregators
forward the union of whatever arrived by their deadline; the querier
reads the final manifest as the reporting subset ``R`` and evaluates
the exact SUM over the survivors instead of rejecting the epoch.

Because the manifest describes what was *actually merged* — not what
senders believe was delivered — ACK losses and sender-side give-ups
never desynchronize verification: a contribution is in the subset iff
it is in the ciphertext.

This module holds the bookkeeping around that idea: classifying each
epoch's sources into survivors / lost / pre-declared-failed, and the
converged-or-not verdict the property tests assert on.  The querier's
settlement of an epoch lives in :mod:`repro.runtime.epoch`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["EpochRecovery"]


@dataclass(frozen=True)
class EpochRecovery:
    """How one epoch's source population fared end to end."""

    epoch: int
    #: Sources that attempted to report (alive, not pre-declared failed).
    attempted: frozenset[int]
    #: Sources whose contribution reached the final PSR (the subset R).
    survivors: frozenset[int]
    #: Sources declared failed up front (never attempted).
    pre_failed: frozenset[int]
    #: True when a final PSR reached the querier at all.
    converged: bool

    def __post_init__(self) -> None:
        if not self.survivors <= self.attempted:
            raise SimulationError(
                f"epoch {self.epoch}: survivors {sorted(self.survivors - self.attempted)} "
                "never attempted to report — manifest corruption"
            )

    @property
    def lost(self) -> frozenset[int]:
        """Sources whose PSR was swallowed by the network this epoch."""
        return self.attempted - self.survivors

    @property
    def complete(self) -> bool:
        """Every attempted source made it into the final PSR."""
        return self.survivors == self.attempted

    def reporting_subset(self, num_sources: int) -> list[int] | None:
        """The ``reporting_sources`` argument for the querier.

        ``None`` (meaning "all") when every source survived — the
        querier's full-set path, on every substrate — otherwise the
        sorted survivor list.
        """
        if self.converged and len(self.survivors) == num_sources:
            return None
        return sorted(self.survivors)
