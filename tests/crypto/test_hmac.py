"""HMAC (RFC 2104) against RFC test vectors and the stdlib.

Also cross-validates the key schedule (`keyed_states`) that
:class:`repro.crypto.prf.PRF` evaluates with two state copies per call.
"""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.hashes import get_hash
from repro.crypto.hmac import HM1, HM256, HMAC, hmac_digest, keyed_states

# RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256) vectors.
RFC2202_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
]

RFC4231_SHA256 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]


@pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
def test_rfc2202_hmac_sha1(key: bytes, msg: bytes, expected: str) -> None:
    assert HM1(key, msg).hex() == expected


@pytest.mark.parametrize("key,msg,expected", RFC4231_SHA256)
def test_rfc4231_hmac_sha256(key: bytes, msg: bytes, expected: str) -> None:
    assert HM256(key, msg).hex() == expected


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("key_len", [0, 1, 20, 63, 64, 65, 200])
def test_matches_stdlib_for_all_key_lengths(backend: str, key_len: int) -> None:
    key = bytes(range(256))[:key_len] or b""
    msg = b"the epoch is 42"
    if key_len == 0:
        key = b"\x00"  # stdlib allows empty keys; our PRF layer forbids them
    assert HM1(key, msg, backend=backend) == stdlib_hmac.new(key, msg, hashlib.sha1).digest()
    assert HM256(key, msg, backend=backend) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()


def test_incremental_hmac() -> None:
    mac = HMAC(b"key", get_hash("sha256"))
    mac.update(b"part one ")
    mac.update(b"part two")
    assert mac.digest() == HM256(b"key", b"part one part two")
    assert mac.hexdigest() == HM256(b"key", b"part one part two").hex()


def test_hmac_digest_selects_algorithm() -> None:
    assert hmac_digest(b"k", b"m", "sha1") == HM1(b"k", b"m")
    assert hmac_digest(b"k", b"m", "sha256") == HM256(b"k", b"m")
    assert len(hmac_digest(b"k", b"m", "sha1")) == 20


def test_digest_sizes_match_paper() -> None:
    # Table I: HM1 -> 20 bytes, HM256 -> 32 bytes.
    assert len(HM1(b"k" * 20, b"m")) == 20
    assert len(HM256(b"k" * 20, b"m")) == 32


def test_key_separation() -> None:
    assert HM1(b"key-a", b"m") != HM1(b"key-b", b"m")
    assert HM256(b"key-a", b"m") != HM256(b"key-b", b"m")


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
def test_copy_is_independent(backend: str, algorithm: str) -> None:
    mac = HMAC(b"key", get_hash(algorithm, backend), b"shared prefix ")
    before = mac.digest()
    clone = mac.copy()
    clone.update(b"clone-only suffix")
    assert mac.digest() == before
    assert clone.digest() == hmac_digest(
        b"key", b"shared prefix clone-only suffix", algorithm, backend
    )
    # And the other way round: the original's updates never reach the clone.
    mac.update(b"original-only suffix")
    assert clone.digest() == hmac_digest(
        b"key", b"shared prefix clone-only suffix", algorithm, backend
    )
    assert mac.digest() == hmac_digest(
        b"key", b"shared prefix original-only suffix", algorithm, backend
    )


def test_digest_is_repeatable_and_non_destructive() -> None:
    mac = HMAC(b"key", get_hash("sha256"), b"m")
    assert mac.digest() == mac.digest() == HM256(b"key", b"m")
    mac.update(b"ore")
    assert mac.digest() == HM256(b"key", b"more")


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("key_len", [1, 20, 64, 200])
def test_repr_exposes_neither_key_nor_pad_states(backend: str, key_len: int) -> None:
    key = bytes((7 * i + 1) % 256 for i in range(key_len))
    mac = HMAC(key, get_hash("sha256", backend))
    text = repr(mac) + str(mac)
    assert repr(mac) == f"HMAC(sha256, backend={backend!r})"
    block = key if key_len <= 64 else hashlib.sha256(key).digest()
    block = block.ljust(64, b"\x00")
    ipad = bytes(b ^ 0x36 for b in block)
    opad = bytes(b ^ 0x5C for b in block)
    for secret in (key, ipad, opad):
        assert secret.hex() not in text
        assert repr(secret) not in text


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
@pytest.mark.parametrize("algorithm", ["sha1", "sha256"])
@pytest.mark.parametrize("key_len", [1, 63, 64, 65, 129])
def test_keyed_states_are_the_stdlib_pads(backend: str, algorithm: str, key_len: int) -> None:
    """The key schedule alone: finishing each pad state by hand gives
    the stdlib's HMAC, and finishing never changes the shared states."""
    key = bytes((3 * i + 1) % 256 for i in range(key_len))
    inner_state, outer_state = keyed_states(key, get_hash(algorithm, backend))
    for message in (b"", b"epoch", b"z" * 130):
        inner = inner_state.copy()
        inner.update(message)
        outer = outer_state.copy()
        outer.update(inner.digest())
        assert outer.digest() == stdlib_hmac.digest(key, message, algorithm)


@pytest.mark.parametrize("backend", ["hashlib", "pure"])
def test_clones_sharing_the_outer_state_stay_independent(backend: str) -> None:
    """Clones of one keyed HMAC share its outer pad state; interleaved
    updates and digests on several clones never disturb each other."""
    key = b"k" * 70
    keyed = HMAC(key, get_hash("sha256", backend))
    clones = [keyed.copy() for _ in range(3)]
    for round_ in range(3):
        for index, clone in enumerate(clones):
            clone.update(bytes([index, round_]))
            assert clone.digest() == clone.digest()
    for index, clone in enumerate(clones):
        message = b"".join(bytes([index, r]) for r in range(3))
        assert clone.digest() == stdlib_hmac.digest(key, message, "sha256")
    assert keyed.digest() == stdlib_hmac.digest(key, b"", "sha256")
