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
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.network.channel import EdgeClass
from repro.utils.rng import derive_key, keyed_uniforms

__all__ = [
    "LinkProfile",
    "BurstLoss",
    "NodeOutage",
    "FaultPlan",
    "KeyedVerdict",
    "KeyedFaultInjector",
]


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


@dataclass(frozen=True)
class KeyedVerdict:
    """What the keyed fault schedule does to one transmission attempt."""

    lost: bool
    #: Copies that survive the link (0 lost, 1 normal, 2 duplicated).
    copies: int


_LOST = KeyedVerdict(lost=True, copies=0)
_DELIVERED = KeyedVerdict(lost=False, copies=1)
_DUPLICATED = KeyedVerdict(lost=False, copies=2)


class KeyedFaultInjector:
    """Order-independent fault oracle keyed by the attempt coordinate.

    Fault schedule v2.  Every decision reads its uniforms from one keyed
    BLAKE2b digest (:func:`~repro.utils.rng.keyed_uniforms`) of the label
    ``kind/sender->receiver/uid/attempt``, under a key derived once per
    injector from the seed.  The four kinds — ``data`` (loss, then
    duplication), ``ack`` (ACK loss), ``lat`` and ``acklat`` (delays) —
    are independent streams, and no generator state is carried from one
    draw to the next, so a verdict depends on nothing but the seed and
    its coordinate.  The number of uniforms per draw never depends on
    the verdict.  Bursts and outages fold into the loss *threshold* and
    draw nothing extra, so a plan without them yields exactly the plain
    plan's schedule.

    Changing the key derivation or the label format re-randomizes every
    keyed schedule; that is a new schedule version, not a refactor.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._key = derive_key(seed, "fault-schedule-v2")
        self._windowed = bool(plan.bursts or plan.outages)

    def _draw(
        self, kind: str, sender: int, receiver: int, uid: int, attempt: int, n: int
    ) -> tuple[float, ...]:
        label = f"{kind}/{sender}->{receiver}/{uid}/{attempt}".encode("ascii")
        return keyed_uniforms(self._key, label, n)

    def _threshold(self, destination: int, edge: EdgeClass, uid: int) -> float:
        """Loss threshold of an attempt towards *destination* in epoch *uid*."""
        if not self._windowed:
            return self.plan.profile_for(edge).loss_rate
        if self.plan.node_down(destination, uid):
            return 1.0
        return self.plan.loss_rate(edge, uid)

    def data_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> KeyedVerdict:
        """Fate of data attempt *attempt* of parcel *uid*."""
        u_loss, u_dup = self._draw("data", sender, receiver, uid, attempt, 2)
        if u_loss < self._threshold(receiver, edge, uid):
            return _LOST
        return _DUPLICATED if u_dup < self.plan.profile_for(edge).duplicate_rate else _DELIVERED

    def ack_verdict(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> bool:
        """True when the ACK for (*uid*, *attempt*) is lost on the way back.

        *sender*/*receiver* name the **data** direction (the ACK travels
        receiver→sender); keyed independently of the data draw so a lost
        packet and a lost ACK are uncorrelated, as on a real radio.
        """
        (u_loss,) = self._draw("ack", sender, receiver, uid, attempt, 1)
        return u_loss < self._threshold(sender, edge, uid)

    def data_latencies(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int, copies: int
    ) -> tuple[float, ...]:
        """Arrival delays for *copies* surviving copies (logical time).

        Drawn from a keyed stream of its own (``"lat"``) so substrates
        that do not simulate latency — the TCP cluster has real sockets
        for that — consume nothing from the loss/duplication streams.
        """
        profile = self.plan.profile_for(edge)
        draws = self._draw("lat", sender, receiver, uid, attempt, copies)
        return tuple(profile.latency + u * profile.jitter for u in draws)

    def ack_latency(
        self, sender: int, receiver: int, edge: EdgeClass, uid: int, attempt: int
    ) -> float:
        """Return-trip delay of a surviving ACK (logical time)."""
        profile = self.plan.profile_for(edge)
        (u,) = self._draw("acklat", sender, receiver, uid, attempt, 1)
        return profile.latency + u * profile.jitter
