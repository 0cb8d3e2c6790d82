"""Adversaries on the TCP cluster, through the same channel as the runtime.

The cluster sends every attempt through the run's one
:class:`~repro.network.channel.Channel` (``orchestrator.channel``): the
sender's ``emit`` runs the frame interceptors before the socket write,
the receiver's ``accept`` decodes each first copy and runs the PSR
interceptors.  On a lossless plan the same interceptor must therefore
leave the same survivors on the cluster as on the event runtime.

One difference is by design.  A frame that no longer decodes is found
only by a receiver that really holds the copy: on the cluster it is an
arrival counted as ``decode_failures`` (and ``channel_decode_failures``)
and ACKed like any other; the runtime's channel runs both halves at the
sender, so it counts the same attempt as ``drops_channel`` and
retransmits.  An interceptor that treats every retransmission of a
parcel alike loses the same parcels either way.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.attacks.wire import FrameBitFlipAttack, HeaderForgeryAttack
from repro.cluster.orchestrator import ClusterConfig, EpochOrchestrator
from repro.core.protocol import SIESProtocol
from repro.network.channel import EdgeClass
from repro.network.topology import build_complete_tree
from repro.runtime import FaultPlan, RuntimeConfig, RuntimeSimulator
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


def _workload(sid: int, epoch: int) -> int:
    return 100 * sid + epoch


def _runtime(attach):
    simulator = RuntimeSimulator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        RuntimeConfig(num_epochs=EPOCHS, seed=SEED, plan=FaultPlan.lossless()),
    )
    attach(simulator.channel)
    return simulator.run()


def _cluster(attach):
    orchestrator = EpochOrchestrator(
        SIESProtocol(N, seed=SEED),
        build_complete_tree(N, FANOUT),
        _workload,
        ClusterConfig(num_epochs=EPOCHS, seed=SEED, plan=FaultPlan.lossless(), window=2, **SAFE),
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
    r, c = runtime.transport.edge(aa), cluster.traffic.edge(aa)
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
    c, r = cluster.traffic.edge(sa), runtime.transport.edge(sa)
    # Only a receiver holding the copy finds it corrupt: the cluster's
    # decode failures are the channel's, the runtime's are channel drops.
    assert c.channel_decode_failures == c.decode_failures > 0
    assert r.channel_decode_failures == r.drops_channel > c.decode_failures
    # The parcels whose frame no longer parses are lost, and only they.
    survivors, _, verdict = _outcomes(cluster)[TARGET]
    assert len(survivors) == N - c.decode_failures and verdict is None
    cluster.traffic.check_conservation()


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
