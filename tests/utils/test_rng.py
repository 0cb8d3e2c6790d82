"""Deterministic labelled randomness."""

from __future__ import annotations

from repro.utils.rng import DeterministicRandom, derive_key, derive_seed


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
