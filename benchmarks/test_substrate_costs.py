"""Substrate benchmarks: μTesla, key schedules, Paillier.

Not paper figures — these price the building blocks the protocols stand
on, so regressions in any substrate are caught before they distort the
table/figure benchmarks above.
"""

from __future__ import annotations

import random

import pytest

from repro.core.keys import SIESKeyMaterial
from repro.core.params import SIESParams
from repro.crypto.keychain import OneWayKeyChain, verify_disclosed_key
from repro.crypto.paillier import generate_paillier_keypair
from repro.network.broadcast import MuTeslaBroadcaster, MuTeslaReceiver

ROOT = b"\x13" * 32


@pytest.mark.benchmark(group="substrate-mutesla")
def test_keychain_generation(benchmark) -> None:
    """Building a 1024-link chain (querier, once per deployment)."""
    benchmark.pedantic(OneWayKeyChain, args=(ROOT, 1024), rounds=5, iterations=1)


@pytest.mark.benchmark(group="substrate-mutesla")
def test_disclosed_key_verification_gap_32(benchmark) -> None:
    """Receiver-side verification across a 32-interval gap."""
    chain = OneWayKeyChain(ROOT, 64)
    key = chain.key(32)
    result = benchmark(verify_disclosed_key, key, 32, chain.commitment)
    assert result


@pytest.mark.benchmark(group="substrate-mutesla")
def test_broadcast_and_authenticate(benchmark) -> None:
    """One packet's full path: MAC, buffer, disclose, verify."""
    broadcaster = MuTeslaBroadcaster(ROOT, 4096)
    state = {"interval": 0}

    def round_trip():
        state["interval"] += 1
        i = state["interval"]
        receiver = MuTeslaReceiver(broadcaster.commitment)
        packet = broadcaster.broadcast(b"SELECT SUM(t) ...", i)
        receiver.receive(packet, current_interval=i)
        # verify against the commitment (gap = i) — worst-case receiver
        return receiver.on_key_disclosed(i, broadcaster.disclose(i))

    result = benchmark.pedantic(round_trip, rounds=20, iterations=1)
    assert result


@pytest.mark.benchmark(group="substrate-keys")
def test_sies_setup_phase_1024(benchmark) -> None:
    """Key generation for a 1024-source deployment (the setup phase)."""
    params = SIESParams(num_sources=1024)
    state = {"seed": 0}

    def setup():
        state["seed"] += 1
        return SIESKeyMaterial.generate(1024, params.p, seed=state["seed"])

    benchmark.pedantic(setup, rounds=3, iterations=1)


@pytest.mark.benchmark(group="substrate-paillier")
def test_paillier_encrypt(benchmark) -> None:
    """The public-key alternative's per-value cost (ODB model) — orders
    above the SIES source's few microseconds, which is the point."""
    keypair = generate_paillier_keypair(bits=1024, rng=random.Random(1))
    rng = random.Random(2)
    benchmark.pedantic(
        lambda: keypair.public.encrypt(12345, rng), rounds=5, iterations=1
    )
