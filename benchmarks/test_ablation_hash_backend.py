"""Ablation — pure-Python vs hashlib hash backends (DESIGN.md §8).

SIES's source cost is dominated by its three HMAC evaluations, so the
hash backend is the single biggest lever on absolute numbers.  This
quantifies the gap and checks the protocol is backend-agnostic.  Next to
each backend's one-shot ``HM256`` (key schedule on every call) sits a
warm ``PRF.evaluate`` (key schedule paid once, state copied per call),
which is how every source and querier PRF runs after its first epoch.
"""

from __future__ import annotations

import pytest

from repro.crypto.hashes import get_default_backend, set_default_backend
from repro.crypto.hmac import HM256
from repro.crypto.prf import PRF
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload

KEY = b"\x55" * 20
MSG = (7).to_bytes(8, "big")


@pytest.fixture(autouse=True)
def _restore_backend():
    original = get_default_backend()
    yield
    set_default_backend(original)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.benchmark(group="ablation-hash-backend")
def test_hm256_backend(benchmark, backend: str) -> None:
    benchmark(HM256, KEY, MSG, backend)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.benchmark(group="ablation-hash-backend")
def test_warm_prf_evaluate_backend(benchmark, backend: str) -> None:
    prf = PRF(KEY, "sha256", backend)
    assert prf.evaluate(MSG) == HM256(KEY, MSG, backend)  # builds the keyed state
    benchmark(prf.evaluate, MSG)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.benchmark(group="ablation-hash-backend")
def test_sies_source_with_backend(benchmark, backend: str) -> None:
    set_default_backend(backend)
    protocol = SIESProtocol(64, seed=1)
    source = protocol.create_source(0)
    workload = UniformWorkload(64, 10, 100, seed=2)
    state = {"epoch": 0}

    def run():
        state["epoch"] += 1
        return source.initialize(state["epoch"], workload(0, state["epoch"]))

    benchmark.pedantic(run, rounds=20, iterations=1, warmup_rounds=2)


def test_backends_produce_identical_protocol_results() -> None:
    """Backend choice must never change ciphertexts or verification."""
    results = {}
    for backend in ("hashlib", "pure"):
        set_default_backend(backend)
        protocol = SIESProtocol(4, seed=3)
        psrs = [protocol.create_source(i).initialize(1, 10 + i) for i in range(4)]
        final = protocol.create_aggregator().merge(1, psrs)
        result = protocol.create_querier().evaluate(1, final)
        results[backend] = (final.ciphertext, result.value)
    assert results["hashlib"] == results["pure"]


def test_pure_backend_is_slower_but_bounded() -> None:
    """Sanity on the ablation's premise: pure Python costs more, but by
    an interpreter-level factor, not an algorithmic one."""
    import time

    def timed(backend: str, loops: int = 300) -> float:
        start = time.perf_counter()
        for _ in range(loops):
            HM256(KEY, MSG, backend)
        return time.perf_counter() - start

    timed("pure", 20)  # warmup
    fast, slow = timed("hashlib"), timed("pure")
    assert slow > fast
    assert slow < 3000 * fast
