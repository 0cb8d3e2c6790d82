"""One interceptor contract on both ARQ substrates.

The event runtime and the TCP cluster send every attempt through the
run's one :class:`~repro.network.channel.Channel`, whose two halves the
one per-hop ARQ drives: the frame interceptors run per attempt at the
sender (``emit``; a frame they drop is ``drops_channel`` and is
retransmitted), decoding and the PSR interceptors once, on the first
copy that lands (``accept``; a copy that does not decode, or that a PSR
interceptor drops, is ``decode_failures`` and is ACKed).  So every
channel adversary of :mod:`repro.attacks` is the same experiment on
both: with the same seeds and fault plan, each epoch ends with the same
verdict and survivors, and each edge class with the same counters and
hop-trace events.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.attacks import (
    AdditiveTamperAttack,
    BitFlipAttack,
    DropAttack,
    Eavesdropper,
    FrameAttack,
    FrameBitFlipAttack,
    FrameInjectionAttack,
    FrameReplayAttack,
    FrameTruncationAttack,
    HeaderForgeryAttack,
    ReplayAttack,
    SketchDeflationAttack,
    SketchInflationAttack,
)
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.network.channel import EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.obs import MetricsRegistry, TraceRecorder, publish_run
from repro.runtime import FaultPlan, LinkProfile, RuntimeConfig, RuntimeSimulator
from repro.wire.frame import decode_header

pytestmark = pytest.mark.cluster

N = 16
FANOUT = 4
EPOCHS = 4
SEED = 7
#: The epoch the interceptors attack.
TARGET = 2
#: Generous real-seconds deadlines so event-loop lag never turns a
#: delivered copy into a late one (see SAFE in test_end_to_end.py).
SAFE = dict(hold_time=0.5, querier_slack=0.5)
LOSSLESS = FaultPlan.lossless()
PLANS = {"lossless": LOSSLESS, "loss20": FaultPlan(default_profile=LinkProfile(loss_rate=0.2))}


def _workload(sid: int, epoch: int) -> int:
    return 100 * sid + epoch


def _sies():
    return SIESProtocol(N, seed=SEED)


def _runtime(attach, plan=LOSSLESS, *, protocol=_sies, observer=None):
    simulator = RuntimeSimulator(
        protocol(),
        build_complete_tree(N, FANOUT),
        _workload,
        RuntimeConfig(num_epochs=EPOCHS, seed=SEED, plan=plan, observer=observer),
    )
    attach(simulator.channel)
    return simulator.run()


def _cluster(attach, plan=LOSSLESS, *, protocol=_sies, observer=None, window=2):
    orchestrator = EpochOrchestrator(
        protocol(),
        build_complete_tree(N, FANOUT),
        _workload,
        ClusterConfig(
            num_epochs=EPOCHS, seed=SEED, plan=plan, window=window, observer=observer, **SAFE
        ),
    )
    attach(orchestrator.channel)
    return asyncio.run(orchestrator.run())


def _outcomes(metrics) -> dict[int, tuple]:
    return {
        record.epoch: (
            record.recovery.survivors,
            record.result.value if record.result is not None else None,
            record.security_failure,
        )
        for record in metrics.epochs
    }


def _drop_target(edge_class: EdgeClass):
    def drop(frame: bytes, edge: EdgeClass) -> bytes | None:
        if edge is edge_class and decode_header(frame).epoch == TARGET:
            return None
        return frame

    return drop


def test_frame_drop_acts_on_the_cluster_as_on_the_runtime() -> None:
    aa = EdgeClass.AGGREGATOR_TO_AGGREGATOR

    def attach(channel):
        channel.add_frame_interceptor(_drop_target(aa))

    runtime, cluster = _runtime(attach), _cluster(attach)
    assert _outcomes(cluster) == _outcomes(runtime)
    # The root heard nothing in the target epoch; every other epoch is whole.
    assert _outcomes(cluster)[TARGET][0] == frozenset()
    assert all(
        survivors == frozenset(range(N))
        for epoch, (survivors, _, _) in _outcomes(cluster).items()
        if epoch != TARGET
    )
    r, c = runtime.traffic.edge(aa), cluster.traffic.edge(aa)
    assert (c.drops_channel, c.gave_up) == (r.drops_channel, r.gave_up)
    # Every attempt of the target epoch's A-A parcels was swallowed.
    assert c.gave_up == FANOUT
    assert c.drops_channel == FANOUT * ClusterConfig().policy.max_attempts
    cluster.traffic.check_conservation()


def test_payload_bit_flip_acts_on_the_cluster_as_on_the_runtime() -> None:
    """A flipped payload bit still parses: the corrupted final PSR reaches
    the querier on both substrates, and SIES rejects every epoch."""
    aq = EdgeClass.AGGREGATOR_TO_QUERIER

    def attach(channel):
        channel.add_frame_interceptor(FrameBitFlipAttack())

    runtime, cluster = _runtime(attach), _cluster(attach)
    assert _outcomes(cluster) == _outcomes(runtime)
    assert {verdict for _, _, verdict in _outcomes(cluster).values()} == {"VerificationFailure"}
    c = cluster.traffic.edge(aq)
    assert c.channel_decode_failures == c.decode_failures == 0
    cluster.traffic.check_conservation()


def _break_magic(frame: bytes, edge: EdgeClass) -> bytes:
    """Flip a magic bit of every S-A frame of the target epoch whose last
    byte is even — a choice fixed by the frame's bytes, so every
    retransmission of a parcel meets the same fate."""
    if (
        edge is not EdgeClass.SOURCE_TO_AGGREGATOR
        or decode_header(frame).epoch != TARGET
        or frame[-1] % 2
    ):
        return frame
    return bytes([frame[0] ^ 0x01]) + frame[1:]


def test_undecodable_frame_acts_on_the_cluster_as_on_the_runtime() -> None:
    sa = EdgeClass.SOURCE_TO_AGGREGATOR

    def attach(channel):
        channel.add_frame_interceptor(_break_magic)

    runtime, cluster = _runtime(attach), _cluster(attach)
    assert _outcomes(cluster) == _outcomes(runtime)
    c, r = cluster.traffic.edge(sa), runtime.traffic.edge(sa)
    # Only a receiver holding the copy finds it corrupt, on both: each
    # such copy is a decode failure, ACKed, never a retransmitted drop.
    assert c.as_dict() | {"envelope_bytes": 0, "ack_bytes": 0} == r.as_dict()
    assert r.channel_decode_failures == r.decode_failures > 0
    assert r.drops_channel == r.retransmissions == 0
    # The parcels whose frame no longer parses are lost, and only they.
    survivors, _, verdict = _outcomes(cluster)[TARGET]
    assert len(survivors) == N - c.decode_failures and verdict is None
    cluster.traffic.check_conservation()
    runtime.traffic.check_conservation()


def test_each_discarded_frame_is_published_once() -> None:
    """``sies_decode_failures_total`` counts each corrupted first copy once
    on the ARQ substrates, and the channel's discards on the analytic one."""
    sa = EdgeClass.SOURCE_TO_AGGREGATOR

    def published(metrics) -> float:
        registry = MetricsRegistry()
        publish_run(metrics, registry)
        series = registry.get("sies_decode_failures_total")
        assert series is not None
        return series.value(substrate=metrics.substrate, edge=sa.value)

    for run in (_runtime, _cluster):
        corrupted: set[bytes] = set()

        def attach(channel):
            def break_magic(frame: bytes, edge: EdgeClass) -> bytes:
                broken = _break_magic(frame, edge)
                if broken is not frame:
                    corrupted.add(frame)
                return broken

            channel.add_frame_interceptor(break_magic)

        metrics = run(attach)
        # Lossless: each corrupted parcel lands once, as its first copy.
        assert len(corrupted) > 0
        assert published(metrics) == len(corrupted)

    simulator = NetworkSimulator(
        _sies(), build_complete_tree(N, FANOUT), _workload, SimulationConfig(num_epochs=EPOCHS)
    )
    simulator.channel.add_frame_interceptor(_break_magic)
    analytic = simulator.run()
    refused = analytic.traffic.edge(sa).channel_decode_failures
    assert refused > 0 and published(analytic) == refused


def test_header_forgery_cannot_move_a_psr_between_epochs() -> None:
    """A forged frame-header epoch on the final PSR: both substrates route
    by the transport epoch, so every epoch still settles on its own PSR,
    and SIES (freshness from the shares) accepts the exact SUM."""

    def attach(channel):
        channel.add_frame_interceptor(HeaderForgeryAttack("epoch"))

    runtime, cluster = _runtime(attach), _cluster(attach)
    assert _outcomes(cluster) == _outcomes(runtime)
    for epoch, (survivors, value, verdict) in _outcomes(cluster).items():
        assert survivors == frozenset(range(N)) and verdict is None
        assert value == sum(_workload(sid, epoch) for sid in range(N))


def _secoa_s():
    return SECOASumProtocol(N, num_sketches=4, rsa_bits=512, seed=SEED)


#: Every channel adversary of :mod:`repro.attacks`: name → (protocol
#: factory, adversary factory).  The sketch attacks act on SECOA_S PSRs.
ADVERSARIES = {
    "additive-tamper": (_sies, lambda p: AdditiveTamperAttack(1, p.params.p)),
    "bit-flip": (_sies, lambda p: BitFlipAttack(p.params.p)),
    "drop": (_sies, lambda p: DropAttack(sender_ids=frozenset({1, 6, 11}))),
    "replay": (_sies, lambda p: ReplayAttack(capture_epoch=TARGET)),
    "eavesdropper": (_sies, lambda p: Eavesdropper()),
    "sketch-inflation": (
        _secoa_s,
        lambda p: SketchInflationAttack(sketch_index=0, boost=5, seal_context=p.seal_context),
    ),
    "sketch-deflation": (_secoa_s, lambda p: SketchDeflationAttack(sketch_index=0)),
    "frame-bit-flip": (_sies, lambda p: FrameBitFlipAttack()),
    "frame-truncation": (_sies, lambda p: FrameTruncationAttack(edge_class=None)),
    "header-forgery-magic": (_sies, lambda p: HeaderForgeryAttack("magic", edge_class=None)),
    "header-forgery-epoch": (
        _sies, lambda p: HeaderForgeryAttack("epoch", edge_class=EdgeClass.SOURCE_TO_AGGREGATOR),
    ),
    "frame-replay": (_sies, lambda p: FrameReplayAttack(capture_epoch=TARGET)),
    "frame-injection": (_sies, lambda p: FrameInjectionAttack()),
    "frame-injection-blind": (_sies, lambda p: FrameInjectionAttack(payload=b"\x00\x01")),
}

#: The adversaries whose output depends on what they saw in earlier epochs.
REPLAYS = {"replay", "frame-replay"}

#: The counters the interceptor contract decides, per edge class.
CONTRACT_COUNTERS = ("drops_channel", "decode_failures", "channel_decode_failures", "gave_up")


def _mounted(name: str, run, plan: FaultPlan, **options):
    """Run *name*'s adversary on substrate *run*; returns the run record,
    its hop-trace events and the adversary."""
    make_protocol, make_adversary = ADVERSARIES[name]
    protocol = make_protocol()
    adversary = make_adversary(protocol)

    def attach(channel):
        if isinstance(adversary, FrameAttack):
            channel.add_frame_interceptor(adversary)
        else:
            channel.add_interceptor(adversary)

    recorder = TraceRecorder(run.__name__.strip("_"))
    metrics = run(attach, plan, protocol=lambda: protocol, observer=recorder, **options)
    return metrics, recorder.events, adversary


@pytest.mark.parametrize("plan", list(PLANS))
@pytest.mark.parametrize("name", list(ADVERSARIES))
def test_one_adversary_is_one_experiment_on_both_arq_substrates(name: str, plan: str) -> None:
    runtime, runtime_events, runtime_adversary = _mounted(name, _runtime, PLANS[plan])
    # A replay adversary carries state from one epoch to the next, so the
    # cluster runs it one epoch at a time, in the order the runtime's
    # epoch spacing fixes; every other adversary acts on each copy alone.
    window = 1 if name in REPLAYS else EPOCHS
    cluster, cluster_events, cluster_adversary = _mounted(
        name, _cluster, PLANS[plan], window=window
    )
    assert _outcomes(cluster) == _outcomes(runtime)
    for edge in EdgeClass:
        r, c = runtime.traffic.edge(edge), cluster.traffic.edge(edge)
        for counter in CONTRACT_COUNTERS:
            assert getattr(c, counter) == getattr(r, counter), (edge.value, counter)

    def kinds(events) -> Counter:
        return Counter((event.edge, event.kind) for event in events)

    assert kinds(cluster_events) == kinds(runtime_events)
    # The adversary fired, and as often on both.
    assert cluster_adversary.times_applied == runtime_adversary.times_applied > 0
    runtime.traffic.check_conservation()
    cluster.traffic.check_conservation()
