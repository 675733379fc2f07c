"""Schoolbook RSA: key generation and hash-then-sign signatures.

FAIR-BFL (paper Figure 2) assigns every client a private key derived from its
ID; the miners hold the corresponding public keys and verify the signature on
every uploaded gradient transaction before using it.  This module provides
that mechanism.

The implementation is deliberately simple (no OAEP/PSS padding) because it
runs inside a simulation where the adversary model is "malicious clients forge
gradient *content*", not "adversaries attack the RSA padding".  Signatures are
``sig = H(message)^d mod n`` with SHA-256 as ``H``; verification recomputes the
digest and checks ``sig^e mod n``.  A key pair signs by the Chinese Remainder
Theorem (two half-width exponentiations); :func:`rsa_sign` is the
plain-exponent reference the tests hold it bit-identical to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd

import numpy as np

from repro.crypto.primes import generate_prime

__all__ = ["RSAKeyPair", "rsa_sign", "rsa_verify"]

_DEFAULT_PUBLIC_EXPONENT = 65537


def _digest_int(message: bytes, modulus: int) -> int:
    """SHA-256 digest of ``message`` reduced into the RSA modulus range."""
    digest = hashlib.sha256(message).digest()
    return int.from_bytes(digest, "big") % modulus


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair ``(n, e, d)`` with its CRT signing material.

    Attributes
    ----------
    modulus:
        ``n = p * q``.
    public_exponent:
        ``e`` (coprime with Euler's totient).
    private_exponent:
        ``d = e^{-1} mod phi(n)``.
    prime_p, prime_q:
        The factors of ``n``.
    exponent_p, exponent_q:
        ``d mod (p - 1)`` and ``d mod (q - 1)``.
    coefficient:
        ``q^{-1} mod p``.
    """

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int
    exponent_p: int
    exponent_q: int
    coefficient: int

    @property
    def public_key(self) -> tuple[int, int]:
        """``(n, e)`` — safe to share with miners."""
        return (self.modulus, self.public_exponent)

    @classmethod
    def generate(cls, rng: np.random.Generator, *, bits: int = 256) -> "RSAKeyPair":
        """Generate a fresh key pair with a ``bits``-bit modulus.

        Parameters
        ----------
        rng:
            Generator used for prime candidates; passing a per-client stream
            makes key assignment reproducible.
        bits:
            Modulus size; must be at least 32 (two >=16-bit primes).
        """
        if bits < 32:
            raise ValueError(f"modulus size must be at least 32 bits, got {bits}")
        half = bits // 2
        e = _DEFAULT_PUBLIC_EXPONENT
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if gcd(e, phi) != 1:
                continue
            d = pow(e, -1, phi)
            return cls(
                modulus=n, public_exponent=e, private_exponent=d, prime_p=p, prime_q=q,
                exponent_p=d % (p - 1), exponent_q=d % (q - 1), coefficient=pow(q, -1, p),
            )

    def sign(self, message: bytes) -> int:
        """Hash-then-sign by CRT; equals :func:`rsa_sign` with the plain ``(n, d)`` key."""
        m = _digest_int(message, self.modulus)
        s_p = pow(m, self.exponent_p, self.prime_p)
        s_q = pow(m, self.exponent_q, self.prime_q)
        return s_q + self.prime_q * ((s_p - s_q) * self.coefficient % self.prime_p)


def rsa_sign(message: bytes, private_key: tuple[int, int]) -> int:
    """Sign ``message`` (hash-then-sign) with ``(n, d)`` and return the integer signature."""
    n, d = int(private_key[0]), int(private_key[1])
    if n <= 1:
        raise ValueError("invalid RSA modulus")
    return pow(_digest_int(message, n), d, n)


def rsa_verify(message: bytes, signature: int, public_key: tuple[int, int]) -> bool:
    """Verify a signature produced by :func:`rsa_sign` against ``(n, e)``.

    Only an ``int`` in ``[0, n)`` can verify: ``sig + k*n`` is congruent to
    ``sig`` and would otherwise give one upload unboundedly many signatures.
    """
    n, e = int(public_key[0]), int(public_key[1])
    if n <= 1 or type(signature) is not int or not 0 <= signature < n:
        return False
    return pow(signature, e, n) == _digest_int(message, n)
