"""Cryptographic substrate built from scratch for the SIES reproduction.

Layers (bottom up):

* :mod:`repro.crypto.sha1` / :mod:`repro.crypto.sha256` — pure-Python
  FIPS 180-4 compression functions (the reference backend).
* :mod:`repro.crypto.hashes` — a uniform hash interface with selectable
  backends (``"pure"`` reference vs ``"hashlib"`` fast path).
* :mod:`repro.crypto.hmac` — RFC 2104 HMAC over that interface; exposes
  the paper's ``HM1`` (HMAC-SHA1) and ``HM256`` (HMAC-SHA256).
* :mod:`repro.crypto.prf` — HMAC-as-PRF with integer outputs.
* :mod:`repro.crypto.modular` / :mod:`repro.crypto.primes` — big-integer
  number theory (egcd, inverses, Miller–Rabin, prime generation).
* :mod:`repro.crypto.rsa` — textbook RSA used by SECOA SEAL chains.
* :mod:`repro.crypto.paillier` — additively homomorphic public-key
  scheme (extension; referenced by the paper via Ge & Zdonik [26]).
* :mod:`repro.crypto.homomorphic` — the SIES building block
  ``E(m,K,k,p) = K*m + k mod p``.
* :mod:`repro.crypto.secret_sharing` — additive N-out-of-N sharing.
* :mod:`repro.crypto.keychain` — one-way hash chains (μTesla substrate).
"""

from repro.crypto.hashes import HashFunction, available_backends, get_hash, sha1, sha256
from repro.crypto.hmac import HM1, HM256, hmac_digest
from repro.crypto.homomorphic import HomomorphicCipher, decrypt, encrypt
from repro.crypto.keychain import OneWayKeyChain
from repro.crypto.modular import egcd, modinv, modexp
from repro.crypto.paillier import PaillierKeyPair, PaillierPublicKey
from repro.crypto.prf import PRF
from repro.crypto.primes import is_probable_prime, next_prime, random_prime
from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
from repro.crypto.secret_sharing import AdditiveSecretSharing

__all__ = [
    "HashFunction",
    "available_backends",
    "get_hash",
    "sha1",
    "sha256",
    "HM1",
    "HM256",
    "hmac_digest",
    "PRF",
    "egcd",
    "modinv",
    "modexp",
    "is_probable_prime",
    "next_prime",
    "random_prime",
    "RSAKeyPair",
    "generate_rsa_keypair",
    "PaillierKeyPair",
    "PaillierPublicKey",
    "HomomorphicCipher",
    "encrypt",
    "decrypt",
    "AdditiveSecretSharing",
    "OneWayKeyChain",
]
