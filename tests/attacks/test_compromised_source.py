"""The compromised-source scenario (paper Section III-C / Theorem 1).

A compromised source hands the adversary ``(K, k_j, p)``.  The paper's
contract: the adversary may alter *its own* reading undetected (every
scheme shares this limit), but must gain nothing against the *other*
sources — it cannot decrypt their PSRs (confidentiality rests on
``k_{i,t}``, not on ``K_t``) and cannot forge their contributions.
"""

from __future__ import annotations

import pytest

from repro.core.keys import _temporal_int
from repro.core.protocol import SIESProtocol
from repro.crypto.modular import modinv
from repro.crypto.prf import PRF, encode_epoch
from repro.errors import VerificationFailure

N = 8
COMPROMISED = 3


@pytest.fixture(scope="module")
def protocol() -> SIESProtocol:
    return SIESProtocol(N, seed=404)


@pytest.fixture(scope="module")
def adversary_view(protocol: SIESProtocol):
    """Everything a compromised source leaks: (K, k_j, p)."""
    bundle = protocol.keys.keys_for_source(COMPROMISED)
    return bundle.master_key, bundle.source_key, bundle.p


def test_adversary_decrypts_only_its_own_psr(protocol, adversary_view) -> None:
    master_key, own_key, p = adversary_view
    epoch = 5
    own_psr = protocol.create_source(COMPROMISED).initialize(epoch, 1234)
    other_psr = protocol.create_source(0).initialize(epoch, 1234)

    # With K_t and its own k_{j,t} the adversary decrypts its own PSR...
    k_t = _temporal_int(
        PRF(master_key, "sha256"), encode_epoch(epoch), p, require_invertible=True
    )
    own_pad = PRF(own_key, "sha256").int_at_epoch(epoch)
    own_plain = ((own_psr.ciphertext - own_pad) * modinv(k_t, p)) % p
    assert own_plain >> protocol.layout.secret_bits == 1234

    # ...but the same K_t applied to another source's PSR yields
    # m + (k_{0,t} - k_{j,t})/K_t — a residue masked by an unknown
    # one-time pad.  Decoding it as a message gives garbage, not 1234.
    forged_plain = ((other_psr.ciphertext - own_pad) * modinv(k_t, p)) % p
    assert forged_plain >> protocol.layout.secret_bits != 1234


def test_other_sources_ciphertexts_look_uniform_under_known_master_key(
    protocol, adversary_view
) -> None:
    """Statistical smoke check of Theorem 1's scenario (ii): even with
    ``K_t`` known, the victim's ciphertexts carry no visible structure —
    constant plaintexts decrypt (with the wrong pad) to residues spread
    over the whole field."""
    master_key, own_key, p = adversary_view
    residues = []
    for epoch in range(1, 41):
        psr = protocol.create_source(0).initialize(epoch, 42)  # constant reading
        k_t = _temporal_int(
            PRF(master_key, "sha256"), encode_epoch(epoch), p, require_invertible=True
        )
        residues.append((psr.ciphertext * modinv(k_t, p)) % p)
    assert len(set(residues)) == 40  # no repetition across epochs
    # spread over the field: top bytes take many distinct values
    top_bytes = {r >> (p.bit_length() - 9) for r in residues}
    assert len(top_bytes) > 25


def test_adversary_cannot_forge_another_sources_contribution(protocol, adversary_view) -> None:
    """It can fabricate a PSR for itself, but substituting a victim's
    PSR (without k_{0,t}) breaks the aggregate's share sum."""
    master_key, own_key, p = adversary_view
    epoch = 9
    psrs = [protocol.create_source(i).initialize(epoch, 10) for i in range(N)]
    # Replace the victim's PSR with an adversary-crafted one that uses
    # ITS key material but claims the victim's slot.
    k_t = _temporal_int(
        PRF(master_key, "sha256"), encode_epoch(epoch), p, require_invertible=True
    )
    own_pad = PRF(own_key, "sha256").int_at_epoch(epoch)
    fake_share = protocol.layout.truncate_share(PRF(own_key, "sha1").at_epoch(epoch))
    forged_message = protocol.layout.encode(999999, fake_share)
    forged_ciphertext = (k_t * forged_message + own_pad) % p
    psrs[0] = type(psrs[0])(ciphertext=forged_ciphertext, epoch=epoch, modulus_bytes=32)
    final = protocol.create_aggregator().merge(epoch, psrs)
    with pytest.raises(VerificationFailure):
        protocol.create_querier().evaluate(epoch, final)


def test_compromised_source_can_lie_about_its_own_reading(protocol) -> None:
    """The documented, unavoidable limit: self-inflicted lies verify.

    (The paper: 'a compromised source can arbitrarily alter its own
    data ... Our scheme, as well as all the approaches in the
    literature, cannot tackle this situation.')"""
    epoch = 11
    values = [10] * N
    psrs = [protocol.create_source(i).initialize(epoch, v) for i, v in enumerate(values)]
    psrs[COMPROMISED] = protocol.create_source(COMPROMISED).initialize(epoch, 99999)
    final = protocol.create_aggregator().merge(epoch, psrs)
    result = protocol.create_querier().evaluate(epoch, final)
    assert result.verified  # accepted...
    assert result.value == 10 * (N - 1) + 99999  # ...with the lie included
