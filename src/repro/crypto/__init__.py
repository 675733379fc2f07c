"""Cryptography substrate.

FAIR-BFL signs every uploaded gradient with the client's RSA private key and
miners verify with the matching public key (paper Figure 2); blocks are linked
and mined with SHA-256 (Equation 4).  This package implements those primitives
from scratch on Python integers and :mod:`hashlib`:

* :mod:`repro.crypto.primes` — Miller-Rabin primality testing and prime
  generation;
* :mod:`repro.crypto.rsa` — key generation and hash-then-sign signatures;
* :mod:`repro.crypto.hashing` — SHA-256 helpers and proof-of-work target
  arithmetic;
* :mod:`repro.crypto.keystore` — the per-entity key registry miners use to
  verify uploads and each other's block headers.

Key sizes are configurable and intentionally small by default (simulation
scale); this is an educational/simulation implementation, not hardened
production cryptography.
"""
