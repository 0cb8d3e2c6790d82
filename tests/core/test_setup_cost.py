"""Setup builds PRFs but never runs a hash: the keyed HMAC state is lazy.

``SIESKeyMaterial`` holds ``2N+1`` PRFs, one per ``(key, hash)`` pair,
and every source derives on the material's own three.  Building each
PRF's keyed state eagerly would put ``2N+1`` key schedules into setup;
these tests keep that cost on the first evaluation instead, and check
that the first epoch pays each key schedule exactly once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator

import pytest

from repro.core.keys import SIESKeyMaterial
from repro.core.layout import MessageLayout
from repro.core.params import SIESParams
from repro.core.protocol import SIESProtocol
from repro.core.source import SIESSource
from repro.crypto import hashes
from repro.crypto.hashes import get_default_backend, set_default_backend
from repro.crypto.prf import PRF
from repro.network.simulator import NetworkSimulator
from repro.network.topology import build_complete_tree

N = 16


@pytest.fixture(params=["hashlib", "pure"])
def hash_constructions(request, monkeypatch) -> Iterator[list[str]]:
    """Every hash object any ``HashFunction`` builds, by algorithm name."""
    calls: list[str] = []

    def counting(name: str, factory: Callable[..., object]) -> Callable[..., object]:
        def counted(data: bytes = b""):
            calls.append(name)
            return factory(data)

        return counted

    real_hashlib_factory = hashes._hashlib_factory
    monkeypatch.setattr(
        hashes, "_hashlib_factory", lambda name: counting(name, real_hashlib_factory(name))
    )
    for name, factory in list(hashes._PURE_FACTORIES.items()):
        monkeypatch.setitem(hashes._PURE_FACTORIES, name, counting(name, factory))
    # Descriptors are shared: start from an empty table so the ones this
    # test's PRFs resolve are built over the counting factories.
    monkeypatch.setattr(hashes, "_DESCRIPTORS", {})
    original = get_default_backend()
    set_default_backend(request.param)
    yield calls
    set_default_backend(original)


def test_prf_construction_runs_no_hash(hash_constructions: list[str]) -> None:
    prf = PRF(b"\x01" * 20, "sha256")
    PRF(b"\x02" * 200, "sha1")  # even an over-long key is hashed lazily
    assert hash_constructions == []
    prf.at_epoch(1)
    # The first evaluation builds the inner and outer pad states ...
    assert hash_constructions == ["sha256", "sha256"]
    prf.at_epoch(2)
    prf.evaluate(b"anything")
    # ... and later ones only copy them.
    assert hash_constructions == ["sha256", "sha256"]


def test_key_material_and_sources_run_no_hash(hash_constructions: list[str]) -> None:
    params = SIESParams(num_sources=N)
    material = SIESKeyMaterial.generate(N, params.p, seed=7)
    layout = MessageLayout.from_params(params)
    sources = [SIESSource(material.keys_for_source(i), layout) for i in range(N)]
    assert hash_constructions == []
    sources[0].initialize(1, 5)
    material.master_key_at(1)
    assert hash_constructions  # the guard itself sees real work


def test_a_first_epoch_pays_one_key_schedule_per_key(hash_constructions: list[str]) -> None:
    """``K`` and each ``k_i`` under HM256, each ``k_i`` under HM1: ``2N+1``
    key schedules of two hash states each, however many parties hold a key."""
    protocol = SIESProtocol(N, seed=7)
    sim = NetworkSimulator(protocol, build_complete_tree(N, 4), lambda sid, epoch: sid + epoch)
    assert hash_constructions == []
    record = sim.run_epoch(1)
    assert record.result is not None and record.result.value == sum(range(N)) + N
    assert len(hash_constructions) == 2 * (2 * N + 1)
    assert Counter(hash_constructions) == {"sha256": 2 * (N + 1), "sha1": 2 * N}
    sim.run_epoch(2)  # every later epoch only copies the keyed states
    assert len(hash_constructions) == 2 * (2 * N + 1)
