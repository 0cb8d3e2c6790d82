"""Byte-level attacks on real frames: same guarantees, real bytes.

Theorems 2 and 4 restated at the wire layer: an adversary who corrupts,
replays, or forges the *encoded frames* in flight gains nothing against
SIES (every attacked epoch is rejected or degenerates to a detected
loss) and everything against CMT (content-preserving corruption is
accepted silently — the failure mode the paper motivates with).
"""

from __future__ import annotations

import pytest

from repro.attacks.scenarios import run_attack_scenario
from repro.attacks.wire import (
    FrameBitFlipAttack,
    FrameInjectionAttack,
    FrameReplayAttack,
    FrameTruncationAttack,
    HeaderForgeryAttack,
)
from repro.baselines.cmt import CMTProtocol
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.network.channel import Channel, EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree

N = 16
WORKLOAD = UniformWorkload(N, 50, 500, seed=31)
EPOCHS = 4


class TestAgainstSIES:
    def test_payload_bit_flip_always_detected(self) -> None:
        """Theorem 2 at the byte level: one flipped payload bit rejects."""
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=41), FrameBitFlipAttack(), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_always_detected
        assert len(outcome.detected_epochs) == EPOCHS
        assert not outcome.false_positive_epochs

    def test_truncation_degenerates_to_detected_loss(self) -> None:
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=42), FrameTruncationAttack(3), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_always_detected  # MessageLost per epoch

    @pytest.mark.parametrize("field", ["magic", "version", "protocol_id"])
    def test_header_forgery_dies_in_the_decoder(self, field: str) -> None:
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=43), HeaderForgeryAttack(field), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_always_detected
        assert not outcome.false_positive_epochs

    def test_epoch_forgery_alone_is_harmless(self) -> None:
        """Relabelling only the header changes nothing the querier trusts.

        The payload still carries the true epoch's shares and the
        querier evaluates under its own notion of the current epoch —
        freshness never derives from the header (Theorem 4's design).
        The *dangerous* combination, stale payload + current header, is
        the FrameReplayAttack case below, and that one is rejected.
        """
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=44),
            HeaderForgeryAttack("epoch", epoch_delta=-1),
            WORKLOAD,
            num_epochs=EPOCHS,
        )
        assert len(outcome.harmless_epochs) == EPOCHS
        assert not outcome.undetected_epochs
        assert not outcome.false_positive_epochs

    def test_frame_replay_detected(self) -> None:
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=45), FrameReplayAttack(capture_epoch=1), WORKLOAD,
            num_epochs=EPOCHS,
        )
        assert len(outcome.detected_epochs) == EPOCHS - 1  # all but capture epoch
        assert not outcome.undetected_epochs
        assert not outcome.false_positive_epochs

    def test_zeroed_payload_injection_detected(self) -> None:
        outcome = run_attack_scenario(
            SIESProtocol(N, seed=46), FrameInjectionAttack(), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_always_detected


class TestAgainstCMT:
    def test_bit_flip_succeeds_silently(self) -> None:
        outcome = run_attack_scenario(
            CMTProtocol(N, seed=51), FrameBitFlipAttack(), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_succeeded_silently
        assert len(outcome.undetected_epochs) == EPOCHS

    def test_frame_replay_succeeds_silently(self) -> None:
        outcome = run_attack_scenario(
            CMTProtocol(N, seed=52), FrameReplayAttack(capture_epoch=1), WORKLOAD,
            num_epochs=EPOCHS,
        )
        assert outcome.attack_succeeded_silently

    def test_truncation_still_only_a_loss(self) -> None:
        """No integrity needed to drop garbage: framing protects everyone."""
        outcome = run_attack_scenario(
            CMTProtocol(N, seed=53), FrameTruncationAttack(1), WORKLOAD, num_epochs=EPOCHS
        )
        assert outcome.attack_always_detected  # MessageLost, not silent corruption


class TestChannelMechanics:
    def test_decode_failures_are_counted_per_edge(self) -> None:
        protocol = SIESProtocol(N, seed=61)
        tree = build_complete_tree(N, 4)
        simulator = NetworkSimulator(
            protocol, tree, WORKLOAD, SimulationConfig(num_epochs=2)
        )
        simulator.channel.add_frame_interceptor(FrameTruncationAttack(2))
        simulator.run()
        ledger = simulator.channel.ledger
        assert ledger.channel_decode_failures == {
            EdgeClass.SOURCE_TO_AGGREGATOR: 0,
            EdgeClass.AGGREGATOR_TO_AGGREGATOR: 0,
            EdgeClass.AGGREGATOR_TO_QUERIER: 2,
        }

    def test_frame_bytes_exceed_analytic_by_header_exactly(self) -> None:
        protocol = SIESProtocol(N, seed=62)
        tree = build_complete_tree(N, 4)
        simulator = NetworkSimulator(
            protocol, tree, WORKLOAD, SimulationConfig(num_epochs=3)
        )
        simulator.run()
        ledger = simulator.channel.ledger
        from repro.wire.frame import HEADER_LEN

        for edge in EdgeClass:
            c = ledger.edge(edge)
            assert c.messages > 0
            assert c.frame_bytes == c.payload_bytes + c.messages * HEADER_LEN

    def test_clear_interceptors_detaches_frame_attacks(self) -> None:
        protocol = SIESProtocol(N, seed=63)
        channel = Channel(codec=protocol.wire_codec())
        attack = FrameTruncationAttack(1)
        channel.add_frame_interceptor(attack)
        channel.clear_interceptors()
        assert channel._frame_interceptors == []
