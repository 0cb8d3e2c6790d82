"""Deterministic labelled randomness."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.utils import rng
from repro.utils.rng import DeterministicRandom, derive_key, derive_seed, keyed_uniforms


def test_same_seed_same_stream() -> None:
    a = DeterministicRandom(42, "x")
    b = DeterministicRandom(42, "x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_labels_separate_streams() -> None:
    a = DeterministicRandom(42, "x")
    b = DeterministicRandom(42, "y")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_child_streams_independent_of_parent_consumption() -> None:
    parent1 = DeterministicRandom(7, "p")
    parent2 = DeterministicRandom(7, "p")
    parent1.random()  # consume from one parent only
    assert parent1.child("c").random() == parent2.child("c").random()


def test_derive_seed_stability_and_separation() -> None:
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
    assert derive_seed(2, "a") != derive_seed(1, "a")
    assert 0 <= derive_seed(1, "a") < 1 << 64


def test_random_bytes_length_and_determinism() -> None:
    rng = DeterministicRandom(5, "bytes")
    data = rng.random_bytes(20)
    assert len(data) == 20
    assert DeterministicRandom(5, "bytes").random_bytes(20) == data
    assert DeterministicRandom(5, "bytes").random_bytes(0) == b""


def test_derive_seed_is_the_key_prefix() -> None:
    key = derive_key(1, "a", "b")
    assert len(key) == 32
    assert derive_seed(1, "a", "b") == int.from_bytes(key[:8], "big")


def test_keyed_uniforms_are_a_pure_function_of_key_label_and_count() -> None:
    key = derive_key(3, "k")
    draws = keyed_uniforms(key, b"x", 8)
    assert draws == keyed_uniforms(key, b"x", 8)
    assert len(set(draws)) == 8
    assert all(0.0 <= u < 1.0 for u in draws)
    assert keyed_uniforms(key, b"y", 8) != draws
    assert keyed_uniforms(derive_key(4, "k"), b"x", 8) != draws
    assert keyed_uniforms(key, b"x", 0) == ()
    with pytest.raises(ParameterError):
        keyed_uniforms(key, b"x", 9)
    with pytest.raises(ParameterError):
        keyed_uniforms(key, b"x", -1)


def test_keyed_uniforms_never_reach_one(monkeypatch: pytest.MonkeyPatch) -> None:
    """The all-ones word keeps its top 53 bits: 1 - 2**-53, not 1.0."""

    class AllOnes:
        def __init__(self, data: bytes, *, key: bytes, digest_size: int) -> None:
            self.size = digest_size

        def digest(self) -> bytes:
            return b"\xff" * self.size

    monkeypatch.setattr(rng.hashlib, "blake2b", AllOnes)
    assert ((1 << 64) - 1) * 2.0**-64 == 1.0  # why the naive scaling is wrong
    assert keyed_uniforms(b"k", b"x", 2) == (1.0 - 2.0**-53,) * 2
