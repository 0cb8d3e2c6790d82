"""Setup-phase key material and temporal derivations."""

from __future__ import annotations

import pytest

from repro.core.keys import KEY_BYTES, SIESKeyMaterial, SourceKeys, _temporal_int
from repro.core.params import SIESParams
from repro.crypto.hmac import HM1, HM256
from repro.crypto.prf import PRF, encode_epoch
from repro.errors import KeyMaterialError
from repro.utils.bytesops import bytes_to_int

P = SIESParams(num_sources=8).p


@pytest.fixture()
def material() -> SIESKeyMaterial:
    return SIESKeyMaterial.generate(8, P, seed=55)


def test_generate_shapes(material: SIESKeyMaterial) -> None:
    assert material.num_sources == 8
    assert len(material.master_key) == KEY_BYTES
    assert all(len(k) == KEY_BYTES for k in material.source_keys)
    assert len(set(material.source_keys)) == 8
    assert material.master_key not in material.source_keys


def test_generation_deterministic_with_seed() -> None:
    a = SIESKeyMaterial.generate(4, P, seed=1)
    b = SIESKeyMaterial.generate(4, P, seed=1)
    c = SIESKeyMaterial.generate(4, P, seed=2)
    assert a.master_key == b.master_key and a.source_keys == b.source_keys
    assert a.master_key != c.master_key


def test_generation_without_seed_is_random() -> None:
    a = SIESKeyMaterial.generate(2, P)
    b = SIESKeyMaterial.generate(2, P)
    assert a.master_key != b.master_key


def test_temporal_derivations_match_paper_formulas(material: SIESKeyMaterial) -> None:
    epoch = 9
    assert material.master_key_at(epoch) == int.from_bytes(
        HM256(material.master_key, encode_epoch(epoch)), "big"
    )
    assert material.source_pad_at(3, epoch) == int.from_bytes(
        HM256(material.source_keys[3], encode_epoch(epoch)), "big"
    )
    assert material.share_digest_at(3, epoch) == HM1(
        material.source_keys[3], encode_epoch(epoch)
    )


def test_master_key_at_is_invertible(material: SIESKeyMaterial) -> None:
    for epoch in range(1, 50):
        assert material.master_key_at(epoch) % P != 0


def test_source_registration_bundle(material: SIESKeyMaterial) -> None:
    encoded = encode_epoch(3)
    for sid in range(material.num_sources):
        bundle = material.keys_for_source(sid)
        assert isinstance(bundle, SourceKeys)
        assert bundle.source_id == sid
        assert bundle.master_key == material.master_key
        assert bundle.source_key == material.source_keys[sid]
        assert bundle.p == P
        # the source derives exactly what the querier derives
        assert _temporal_int(
            bundle.master_prf, encoded, P, require_invertible=True
        ) == material.master_key_at(3)
        assert bytes_to_int(bundle.pad_prf.evaluate(encoded)) == material.source_pad_at(sid, 3)
        assert bundle.share_prf.evaluate(encoded) == material.share_digest_at(sid, 3)
        assert bundle.pad_prf.evaluate(encoded) == HM256(material.source_keys[sid], encoded)
        with pytest.raises(AttributeError):
            bundle.source_key = material.source_keys[0]  # type: ignore[misc]


def test_keys_for_unknown_source(material: SIESKeyMaterial) -> None:
    with pytest.raises(KeyMaterialError):
        material.keys_for_source(8)
    with pytest.raises(KeyMaterialError):
        material.keys_for_source(-1)


def test_constructor_validation() -> None:
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"", [b"k1"], P)
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"master", [], P)
    with pytest.raises(KeyMaterialError):
        SIESKeyMaterial(b"master", [b"same", b"same"], P)
    with pytest.raises(KeyMaterialError, match="non-empty"):
        SIESKeyMaterial(b"master", [b"k0", b""], P)
    # K == k_i makes K_t equal source i's pad k_i,t: every source could strip it.
    with pytest.raises(KeyMaterialError, match="master key"):
        SIESKeyMaterial(b"k1", [b"k0", b"k1"], P)


def test_distinct_sources_have_distinct_temporal_keys(material: SIESKeyMaterial) -> None:
    pads = {material.source_pad_at(i, 1) for i in range(8)}
    shares = {material.share_digest_at(i, 1) for i in range(8)}
    assert len(pads) == 8 and len(shares) == 8


def test_invertibility_retry_path_uses_warm_prf_state() -> None:
    """Force ``K_t ≡ 0`` with a modulus equal to the first digest: the
    retry input ``encode_epoch(t) ∥ r`` must go through the same keyed
    state and give exactly ``HM256(K, t ∥ 1)``."""
    key = b"\x33" * 20
    first = bytes_to_int(HM256(key, encode_epoch(9)))
    expected = bytes_to_int(HM256(key, encode_epoch(9) + bytes([1])))
    warm = PRF(key, "sha256")
    warm.at_epoch(3)
    for prf in (warm, PRF(key, "sha256")):
        assert _temporal_int(prf, encode_epoch(9), first, require_invertible=True) == expected
        assert _temporal_int(prf, encode_epoch(9), first, require_invertible=False) == first


@pytest.mark.parametrize("source_id", [-1, -8, 8, 9])
def test_temporal_derivations_reject_sources_outside_the_deployment(
    material: SIESKeyMaterial, source_id: int
) -> None:
    """A negative id must not alias source ``N+id`` through Python's
    negative indexing, and an id past the end is a key-material error,
    like :meth:`SIESKeyMaterial.keys_for_source`, not a bare IndexError."""
    with pytest.raises(KeyMaterialError):
        material.source_pad_at(source_id, 1)
    with pytest.raises(KeyMaterialError):
        material.share_digest_at(source_id, 1)
    with pytest.raises(KeyMaterialError):
        material.keys_for_source(source_id)
    with pytest.raises(KeyMaterialError):
        material.epoch_material(1, [0, source_id], lambda digest: 0)


@pytest.mark.parametrize("contributors", [None, [], [3], [7, 0, 5], list(range(8))])
def test_epoch_material_equals_the_per_source_derivations(
    material: SIESKeyMaterial, contributors: list[int] | None
) -> None:
    epoch = 11
    ids = range(8) if contributors is None else contributors
    share_value = lambda digest: int.from_bytes(digest, "big")
    assert material.epoch_material(epoch, contributors, share_value) == (
        material.master_key_at(epoch),
        sum(material.source_pad_at(sid, epoch) for sid in ids) % P,
        sum(share_value(material.share_digest_at(sid, epoch)) for sid in ids),
    )
