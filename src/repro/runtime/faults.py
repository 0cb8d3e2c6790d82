"""The seeded fault model both substrates share.

A :class:`FaultPlan` declares *what can go wrong*: per-edge-class link
profiles (loss rate, latency, jitter, duplication), epoch-windowed burst
losses, and node outages.  A :class:`KeyedFaultInjector` turns the plan
into verdicts keyed by the full attempt coordinate
``(sender, receiver, parcel uid, attempt index)``: a verdict is a pure
function of the seed and that coordinate — no matter when, in what
order, or how often it is queried.  That is what keeps the TCP cluster
reproducible under real concurrency and what lets the event runtime
replay the *same* loss schedule as the cluster on the same seed.

Windows are counted in epochs (a parcel's uid is its epoch), never in
time: a burst or an outage covers the same attempts on every substrate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import NamedTuple

from repro.errors import ParameterError
from repro.network.channel import EdgeClass
from repro.utils.rng import derive_key

__all__ = [
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "KeyedVerdict",
    "KeyedFaultInjector",
]

#: The seven big-endian 64-bit words of one verdict digest.
_SEVEN_WORDS = struct.Struct(">7Q").unpack
#: Weight of the lowest of the 53 bits a uniform keeps: ``(word >> 11) * _ULP``
#: lies in ``[0, 1)``, where ``word * 2**-64`` would round the largest words
#: up to exactly 1.0, which a down node's loss threshold of 1.0 must catch.
_ULP = 2.0**-53


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class LinkProfile:
    """Steady-state behaviour of one radio link (or edge class).

    ``latency`` is the base one-way propagation in logical time units;
    each transmission adds ``uniform(0, jitter)`` on top, which also
    models reordering — two packets sent back-to-back may arrive
    swapped whenever the jitter window exceeds the send gap.
    """

    loss_rate: float = 0.0
    latency: float = 1.0
    jitter: float = 0.5
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        _check_rate("duplicate_rate", self.duplicate_rate)
        if not (math.isfinite(self.latency) and math.isfinite(self.jitter)):
            raise ParameterError(
                f"latency and jitter must be finite, got {self.latency} and {self.jitter}"
            )
        if self.latency < 0 or self.jitter < 0:
            raise ParameterError("latency and jitter must be non-negative")


@dataclass(frozen=True)
class BurstLoss:
    """Elevated loss over the epochs ``first_epoch..last_epoch`` (inclusive).

    Models interference bursts: on matching edges the effective loss
    rate becomes ``1 - (1-base)*(1-loss_rate)`` (independent loss
    sources), for data attempts and ACKs alike.
    """

    first_epoch: int
    last_epoch: int
    loss_rate: float = 1.0
    edge_class: EdgeClass | None = None

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate)
        if self.last_epoch < self.first_epoch:
            raise ParameterError(
                f"burst window {self.first_epoch}..{self.last_epoch} is empty"
            )

    def active(self, epoch: int, edge: EdgeClass) -> bool:
        if self.edge_class is not None and edge is not self.edge_class:
            return False
        return self.first_epoch <= epoch <= self.last_epoch


@dataclass(frozen=True)
class NodeOutage:
    """A node is down over the epochs ``first_epoch..last_epoch`` (inclusive).

    A down node receives nothing (every attempt sent to it is lost) and
    so forwards nothing; a down source does not report at all.
    """

    node_id: int
    first_epoch: int
    last_epoch: float = math.inf

    def __post_init__(self) -> None:
        if self.last_epoch < self.first_epoch:
            raise ParameterError(
                f"outage window {self.first_epoch}..{self.last_epoch} is empty"
            )

    def down(self, epoch: int) -> bool:
        return self.first_epoch <= epoch <= self.last_epoch


@dataclass
class FaultPlan:
    """The complete fault configuration of one run."""

    #: Profile used for edge classes without an explicit override.
    default_profile: LinkProfile = field(default_factory=LinkProfile)
    #: Per-edge-class overrides (e.g. a lossier source tier).
    profiles: dict[EdgeClass, LinkProfile] = field(default_factory=dict)
    bursts: tuple[BurstLoss, ...] = ()
    outages: tuple[NodeOutage, ...] = ()

    def profile_for(self, edge: EdgeClass) -> LinkProfile:
        return self.profiles.get(edge, self.default_profile)

    def node_down(self, node_id: int, epoch: int) -> bool:
        """True when the node is inside any of its outage windows."""
        return any(o.node_id == node_id and o.down(epoch) for o in self.outages)

    def loss_rate(self, edge: EdgeClass, epoch: int) -> float:
        """Steady-state loss combined with every burst active at *epoch*.

        Exactly the profile's rate when no burst is active, so plans
        without bursts keep their thresholds bit for bit.
        """
        rate = self.profile_for(edge).loss_rate
        active = [b for b in self.bursts if b.active(epoch, edge)]
        if not active:
            return rate
        survive = 1.0 - rate
        for burst in active:
            survive *= 1.0 - burst.loss_rate
        return 1.0 - survive

    @classmethod
    def lossless(cls) -> "FaultPlan":
        """The degenerate plan: instant, perfect links (overhead baseline)."""
        return cls(default_profile=LinkProfile(loss_rate=0.0, latency=0.0, jitter=0.0))

    @classmethod
    def uniform_loss(cls, loss_rate: float, **profile_kwargs: float) -> "FaultPlan":
        """Every edge class loses packets independently at *loss_rate*."""
        return cls(default_profile=LinkProfile(loss_rate=loss_rate, **profile_kwargs))


class KeyedVerdict(NamedTuple):
    """The whole fate of one transmission attempt, read from its one digest."""

    lost: bool
    #: Copies that survive the link (0 lost, 1 normal, 2 duplicated).
    copies: int
    #: Arrival delays of the first and the second copy; the first ``copies`` apply.
    latencies: tuple[float, float]
    #: Whether the ACK of a copy of this attempt is lost on the way back, and its delay.
    ack_lost: bool
    ack_latency: float
    #: Backoff jitter ``u`` of :meth:`~repro.runtime.transport.RetransmitPolicy.timeout_for`.
    jitter: float


#: Builds a :class:`KeyedVerdict` from one tuple of its fields, skipping
#: the Python-level ``__new__`` of the named tuple.
_new_verdict = tuple.__new__


class KeyedFaultInjector:
    """Order-independent fault oracle keyed by the attempt coordinate.

    Fault schedule v3: one keyed BLAKE2b digest per coordinate — 56
    bytes over ``sender->receiver/uid/attempt`` under a key derived from
    the seed, read as seven big-endian words, each keeping its top 53
    bits as a uniform in ``[0, 1)`` — whose seven uniforms fill the
    slots of :class:`KeyedVerdict` in field order, each drawn whatever
    the verdict.  No state is carried between digests, so a verdict, its ACK
    timeout included, depends only on the seed and its coordinate.
    Bursts and outages only move the loss thresholds.  The plan is read
    at construction: each edge class's link profile is resolved once.
    :meth:`data_verdict` hashes; the other three methods are views of it.
    Changing the key, the label or the slots re-randomizes every keyed
    schedule: that is a new schedule version, not a refactor.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self._key = derive_key(seed, "fault-schedule-v3")
        self._windowed = bool(plan.bursts or plan.outages)
        #: Edge class → (loss rate, duplicate rate, latency, jitter) of its profile.
        self._links: dict[EdgeClass, tuple[float, float, float, float]] = {}
        for edge in EdgeClass:
            profile = plan.profile_for(edge)
            self._links[edge] = (
                profile.loss_rate, profile.duplicate_rate, profile.latency, profile.jitter
            )

    def _threshold(self, destination: int, edge: EdgeClass, uid: int) -> float:
        """Loss threshold of a windowed plan towards *destination* in epoch *uid*."""
        return 1.0 if self.plan.node_down(destination, uid) else self.plan.loss_rate(edge, uid)

    def data_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> KeyedVerdict:
        """Fate of data attempt *attempt* of parcel *uid*, and of its ACKs.

        *sender*/*receiver* name the **data** direction; the ACK travels
        receiver→sender, so a down sender loses it.  Data and ACK loss
        read different slots, so they are uncorrelated, as on a real radio.
        """
        w_loss, w_dup, w_first, w_second, w_ack, w_ack_latency, w_jitter = _SEVEN_WORDS(
            blake2b(
                f"{sender}->{receiver}/{uid}/{attempt}".encode("ascii"),
                key=self._key,
                digest_size=56,
            ).digest()
        )
        loss_rate, duplicate_rate, latency, jitter = self._links[edge]
        if self._windowed:
            lost = (w_loss >> 11) * _ULP < self._threshold(receiver, edge, uid)
            ack_lost = (w_ack >> 11) * _ULP < self._threshold(sender, edge, uid)
        else:
            lost = (w_loss >> 11) * _ULP < loss_rate
            ack_lost = (w_ack >> 11) * _ULP < loss_rate
        return _new_verdict(
            KeyedVerdict,
            (
                lost,
                0 if lost else 2 if (w_dup >> 11) * _ULP < duplicate_rate else 1,
                (
                    latency + (w_first >> 11) * _ULP * jitter,
                    latency + (w_second >> 11) * _ULP * jitter,
                ),
                ack_lost,
                latency + (w_ack_latency >> 11) * _ULP * jitter,
                (w_jitter >> 11) * _ULP,
            ),
        )

    def ack_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> bool:
        """True when the ACK for (*uid*, *attempt*) is lost on the way back."""
        return self.data_verdict(sender, receiver, edge, uid, attempt).ack_lost

    def data_latencies(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, copies: int
    ) -> tuple[float, ...]:
        """Arrival delays of the first *copies* (at most 2) copies (logical time)."""
        return self.data_verdict(sender, receiver, edge, uid, attempt).latencies[:copies]

    def ack_latency(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> float:
        """Return-trip delay of a surviving ACK (logical time)."""
        return self.data_verdict(sender, receiver, edge, uid, attempt).ack_latency
