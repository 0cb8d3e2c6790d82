"""The HMAC-based PRF layer (epoch encoding, int outputs, expansion)."""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.crypto.hmac import HM1, HM256
from repro.crypto.prf import PRF, encode_epoch
from repro.errors import ParameterError


def test_epoch_encoding_is_canonical_and_injective() -> None:
    assert encode_epoch(0) == b"\x00" * 8
    assert encode_epoch(1) == b"\x00" * 7 + b"\x01"
    assert len({encode_epoch(t) for t in range(200)}) == 200


def test_epoch_bounds() -> None:
    encode_epoch((1 << 64) - 1)
    with pytest.raises(ParameterError):
        encode_epoch(1 << 64)
    with pytest.raises(ParameterError):
        encode_epoch(-1)


def test_at_epoch_matches_paper_formula() -> None:
    key = b"\x42" * 20
    prf1 = PRF(key, "sha1")
    prf256 = PRF(key, "sha256")
    # K_t = HM256(K, t); ss_t = HM1(k, t) — exactly the paper's derivations.
    assert prf256.at_epoch(7) == HM256(key, encode_epoch(7))
    assert prf1.at_epoch(7) == HM1(key, encode_epoch(7))
    assert prf1.output_size == 20
    assert prf256.output_size == 32


def test_int_at_epoch_with_and_without_modulus() -> None:
    prf = PRF(b"k" * 20, "sha256")
    raw = prf.int_at_epoch(3)
    assert 0 <= raw < 1 << 256
    assert prf.int_at_epoch(3, modulus=97) == raw % 97


def test_different_epochs_give_independent_outputs() -> None:
    prf = PRF(b"k" * 20, "sha1")
    outputs = {prf.at_epoch(t) for t in range(100)}
    assert len(outputs) == 100


def test_expand_lengths_and_determinism() -> None:
    prf = PRF(b"k" * 20, "sha256")
    for length in (1, 31, 32, 33, 100):
        out = prf.expand(b"ctx", length)
        assert len(out) == length
        assert out == prf.expand(b"ctx", length)
    # prefix property: longer expansions extend shorter ones
    assert prf.expand(b"ctx", 100)[:32] == prf.expand(b"ctx", 32)


def test_derive_key_domain_separation() -> None:
    prf = PRF(b"k" * 20, "sha256")
    assert prf.derive_key("a") != prf.derive_key("b")
    assert len(prf.derive_key("a", 20)) == 20
    assert len(prf.derive_key("a", 64)) == 64


def test_empty_key_rejected() -> None:
    with pytest.raises(ParameterError):
        PRF(b"")


def test_modulus_must_be_positive() -> None:
    prf = PRF(b"k")
    with pytest.raises(ParameterError):
        prf.int_at_epoch(1, modulus=0)


# ----------------------------------------------------------------------
# Keyed state: one HMAC key schedule per PRF, copied per evaluation
# ----------------------------------------------------------------------

_STDLIB = {"sha1": hashlib.sha1, "sha256": hashlib.sha256}


def _messages() -> list[bytes]:
    # Epoch inputs interleaved with the K_t retry input and odd lengths,
    # so a warm state that leaked one message into the next would show.
    return [
        encode_epoch(1),
        encode_epoch(2),
        encode_epoch(1) + bytes([1]),
        b"",
        encode_epoch(1),
        b"x" * 200,
        encode_epoch(1) + bytes([2]),
        encode_epoch(2),
    ]


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("key_len", [1, 20, 63, 64, 65, 200])
def test_warm_and_fresh_prfs_match_stdlib(backend: str, algorithm: str, key_len: int) -> None:
    key = bytes((31 * i + 5) % 256 for i in range(key_len))
    warm = PRF(key, algorithm, backend)
    for message in _messages():
        expected = stdlib_hmac.new(key, message, _STDLIB[algorithm]).digest()
        assert warm.evaluate(message) == expected
        assert PRF(key, algorithm, backend).evaluate(message) == expected


def test_racing_first_evaluations_match_sequential() -> None:
    """Cold PRFs filled concurrently from a thread pool return the
    sequential results: a PRF shared across threads may build its keyed
    pad states twice, but every evaluation still matches."""
    workers = 4
    keys = [bytes([i + 1]) * 20 for i in range(24)]
    algorithms = ("sha1", "sha256")
    expected = {
        (i, alg, t): PRF(key, alg).at_epoch(t)
        for i, key in enumerate(keys)
        for alg in algorithms
        for t in range(workers)
    }
    cold = {(i, alg): PRF(key, alg) for i, key in enumerate(keys) for alg in algorithms}
    barrier = threading.Barrier(workers, timeout=30)

    def first_call(i: int, alg: str, epoch: int) -> bytes:
        barrier.wait()  # release all workers onto the same cold PRF at once
        return cold[i, alg].at_epoch(epoch)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            (i, alg, t): pool.submit(first_call, i, alg, t)
            for (i, alg) in cold
            for t in range(workers)
        }
        got = {coord: future.result() for coord, future in futures.items()}
    assert got == expected
    # The raced state stays correct for later calls too.
    for (i, alg), prf in cold.items():
        assert prf.at_epoch(99) == PRF(keys[i], alg).at_epoch(99)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
def test_repr_exposes_no_key_material(backend: str) -> None:
    key = bytes(range(1, 21))
    prf = PRF(key, "sha256", backend)
    cold = repr(prf)
    prf.at_epoch(1)  # fill the keyed state; repr must not change
    assert repr(prf) == cold == f"PRF('sha256', backend={backend!r})"
    block = key.ljust(64, b"\x00")
    for secret in (key, bytes(b ^ 0x36 for b in block), bytes(b ^ 0x5C for b in block)):
        assert secret.hex() not in repr(prf) + str(prf)
        assert repr(secret) not in repr(prf) + str(prf)


# ----------------------------------------------------------------------
# Cross-validation against the stdlib: two state copies per evaluation
# ----------------------------------------------------------------------

#: Shorter than, equal to and longer than the 64-byte block of both hashes.
_KEY_LENGTHS = [1, 32, 63, 64, 65, 129]
_EPOCHS = [0, 1, 2, 255, 256, 1 << 32, (1 << 64) - 1]


def _key(length: int) -> bytes:
    return bytes((13 * i + 7) % 256 for i in range(length))


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("key_len", _KEY_LENGTHS)
def test_evaluate_and_at_epoch_equal_stdlib_digest(
    backend: str, algorithm: str, key_len: int
) -> None:
    key = _key(key_len)
    prf = PRF(key, algorithm, backend)
    for epoch in _EPOCHS:
        expected = stdlib_hmac.digest(key, encode_epoch(epoch), algorithm)
        assert prf.at_epoch(epoch) == expected
        assert prf.evaluate(encode_epoch(epoch)) == expected
    for message in (b"", b"m", bytes(range(256)) * 3):
        assert prf.evaluate(message) == stdlib_hmac.digest(key, message, algorithm)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
def test_repeated_and_interleaved_evaluations_keep_the_keyed_state(
    backend: str, algorithm: str
) -> None:
    """Every entry point on one PRF, in an order that would expose a
    state updated in place: each result still equals the stdlib's."""
    key = _key(20)
    prf = PRF(key, algorithm, backend)

    def hm(message: bytes) -> bytes:
        return stdlib_hmac.digest(key, message, algorithm)

    for _ in range(3):
        for epoch in (5, 6, 5):
            assert prf.at_epoch(epoch) == hm(encode_epoch(epoch))
        assert prf.evaluate(b"x" * 100) == hm(b"x" * 100)
        assert prf.derive_key("label") == hm(b"derive:label")
        blocks = b"".join(hm(b"ctx" + counter.to_bytes(4, "big")) for counter in range(3))
        assert prf.expand(b"ctx", 48) == blocks[:48]
        assert prf.int_at_epoch(5) == int.from_bytes(hm(encode_epoch(5)), "big")


@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
def test_two_threads_racing_the_first_evaluation_agree(algorithm: str) -> None:
    """Two threads released onto one cold PRF at once both get the
    stdlib's digest, whichever keyed state the PRF keeps."""
    for trial in range(20):
        key = _key(trial + 1)
        prf = PRF(key, algorithm)
        barrier = threading.Barrier(2, timeout=30)

        def first_call(epoch: int, prf: PRF = prf, barrier: threading.Barrier = barrier) -> bytes:
            barrier.wait()
            return prf.at_epoch(epoch)

        with ThreadPoolExecutor(max_workers=2) as pool:
            digests = list(pool.map(first_call, (trial, trial)))
        expected = stdlib_hmac.digest(key, encode_epoch(trial), algorithm)
        assert digests == [expected, expected]
        assert prf.at_epoch(trial + 1) == stdlib_hmac.digest(key, encode_epoch(trial + 1), algorithm)


@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("length", [1, 32, 33, 4096])
def test_expand_matches_a_stdlib_counter_mode_reference(algorithm: str, length: int) -> None:
    """``expand`` is HMAC in counter mode: ``F_K(m ∥ i)`` for 4-byte
    big-endian counters ``i = 0, 1, …``, concatenated and cut to length."""
    key = _key(20)
    message = b"expand-context"
    reference = b""
    counter = 0
    while len(reference) < length:
        reference += stdlib_hmac.digest(key, message + counter.to_bytes(4, "big"), algorithm)
        counter += 1
    assert PRF(key, algorithm).expand(message, length) == reference[:length]


def test_derive_key_expands_from_the_same_labelled_input() -> None:
    key = _key(20)
    expected = b"".join(
        stdlib_hmac.digest(key, b"derive:label" + counter.to_bytes(4, "big"), "sha256")
        for counter in range(2)
    )
    assert PRF(key, "sha256").derive_key("label", 40) == expected[:40]
