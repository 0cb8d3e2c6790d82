"""Seeded loss injection at the cluster's stream layer.

TCP never loses bytes, so the cluster injects loss *before* the socket:
when the fault schedule says an attempt is lost, the sender simply does
not write the envelope (and counts the drop) — from the receiver's point
of view this is indistinguishable from a radio swallowing the packet.

The schedule is :class:`~repro.runtime.faults.KeyedFaultInjector`, the
oracle the event runtime uses too.  It keys every decision by the full
attempt coordinate ``(sender, receiver, parcel uid, attempt index)``, so
a verdict is a pure function of the seed and that coordinate — *no
matter when or in what order the attempts happen* — and the set of
parcels that ultimately deliver (hence every epoch's survivor set and
exact SUM) is reproducible run to run and computable in advance by
:func:`parcel_fate`, the oracle the differential tests replay.

Latency and jitter of the plan's :class:`~repro.runtime.faults.LinkProfile`
are *not* simulated here — real sockets provide real latency.  Loss,
duplication, epoch-windowed bursts and node outages apply exactly as on
the runtime.
"""

from __future__ import annotations

from repro.network.channel import EdgeClass
from repro.runtime.faults import KeyedFaultInjector
from repro.runtime.transport import RetransmitPolicy

__all__ = ["parcel_fate"]


def parcel_fate(
    injector: KeyedFaultInjector,
    policy: RetransmitPolicy,
    sender: int,
    receiver: int,
    edge: EdgeClass,
    uid: int,
) -> tuple[bool, int]:
    """Replay one parcel's ARQ against the keyed schedule, one verdict
    (data fate and ACK fate) per attempt.

    Returns ``(delivered, attempts)`` where *attempts* is the number of
    attempts a sender makes when every ACK round-trip beats its timeout.
    Under slow ACKs a real sender may fire **more** attempts than this
    before the first ACK lands — but extra attempts can only deliver
    extra (suppressed) copies, so ``delivered`` is timing-independent:
    it is exactly what the cluster produces on the same seed and plan.
    The differential tests walk the tree bottom-up with this function to
    predict every epoch's survivor set in advance.
    """
    delivered = False
    for attempt in range(policy.max_attempts):
        verdict = injector.data_verdict(sender, receiver, edge, uid, attempt)
        if not verdict.lost:
            delivered = True
            if not verdict.ack_lost:
                return True, attempt + 1
    return delivered, policy.max_attempts
