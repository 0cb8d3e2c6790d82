"""The backend-switchable hash interface and its shared descriptors."""

from __future__ import annotations

import pytest

from repro.crypto import hashes
from repro.crypto.hashes import (
    available_backends,
    get_default_backend,
    get_hash,
    set_default_backend,
    sha1,
    sha256,
)
from repro.crypto.prf import PRF
from repro.errors import ConfigurationError, ParameterError


@pytest.fixture(autouse=True)
def _restore_backend():
    original = get_default_backend()
    yield
    set_default_backend(original)


def test_available_backends() -> None:
    assert set(available_backends()) == {"hashlib", "pure"}


@pytest.mark.parametrize("name,size", [("sha1", 20), ("sha256", 32)])
@pytest.mark.parametrize("backend", ["hashlib", "pure"])
def test_backends_agree(name: str, size: int, backend: str) -> None:
    h = get_hash(name, backend)
    assert h.digest_size == size
    assert h.block_size == 64
    assert h.digest(b"payload") == get_hash(name, "hashlib").digest(b"payload")
    assert len(h.digest(b"payload")) == size


def test_incremental_api_on_both_backends() -> None:
    for backend in available_backends():
        hasher = get_hash("sha256", backend).new(b"a")
        hasher.update(b"b")
        assert hasher.digest() == get_hash("sha256").digest(b"ab")


def test_default_backend_switch() -> None:
    set_default_backend("pure")
    assert get_hash("sha1").backend == "pure"
    set_default_backend("hashlib")
    assert get_hash("sha1").backend == "hashlib"


def test_unknown_algorithm_rejected() -> None:
    with pytest.raises(ParameterError):
        get_hash("md5")


def test_unknown_backend_rejected() -> None:
    with pytest.raises(ConfigurationError):
        get_hash("sha1", "openssl3")
    with pytest.raises(ConfigurationError):
        set_default_backend("gpu")


def test_convenience_constructors() -> None:
    assert sha1().name == "sha1"
    assert sha256().name == "sha256"
    assert sha1("pure").backend == "pure"
    assert sha256().hexdigest(b"x") == sha256("pure").hexdigest(b"x")


# -- shared descriptors -------------------------------------------------


@pytest.mark.parametrize("name", ["sha1", "sha256"])
@pytest.mark.parametrize("backend", ["hashlib", "pure"])
def test_repeated_calls_share_one_descriptor(name: str, backend: str) -> None:
    first = get_hash(name, backend)
    assert get_hash(name, backend) is first
    assert (first.name, first.backend) == (name, backend)


def test_default_switch_changes_what_a_later_call_returns() -> None:
    set_default_backend("hashlib")
    before = get_hash("sha256")
    set_default_backend("pure")
    after = get_hash("sha256")
    assert after is not before
    assert after.backend == "pure" and before.backend == "hashlib"
    assert after is get_hash("sha256", "pure")
    set_default_backend("hashlib")
    assert get_hash("sha256") is before


def test_prf_built_before_a_switch_keeps_its_backend() -> None:
    set_default_backend("pure")
    prf = PRF(b"k" * 20, "sha256")
    set_default_backend("hashlib")
    later = PRF(b"k" * 20, "sha256")
    assert repr(prf) == "PRF('sha256', backend='pure')"
    assert repr(later) == "PRF('sha256', backend='hashlib')"
    assert prf.at_epoch(3) == later.at_epoch(3)


def test_unknown_names_and_backends_raise_with_a_warm_table() -> None:
    for backend in available_backends():
        for name in ("sha1", "sha256"):
            get_hash(name, backend)
    for _ in range(2):  # a failed lookup stores nothing, so it fails again
        with pytest.raises(ParameterError):
            get_hash("md5")
        with pytest.raises(ParameterError):
            get_hash("md5", "pure")
        with pytest.raises(ConfigurationError):
            get_hash("sha1", "openssl3")
    with pytest.raises(ConfigurationError):
        set_default_backend("gpu")
    assert get_default_backend() in available_backends()
    assert set(hashes._DESCRIPTORS) == {
        (name, backend) for name in ("sha1", "sha256") for backend in available_backends()
    }
