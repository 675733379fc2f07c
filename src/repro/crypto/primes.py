"""Prime generation via Miller-Rabin.

Used by :mod:`repro.crypto.rsa` to generate key pairs.  The implementation is
deterministic given a ``numpy.random.Generator`` so client key assignment is
replayable across runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["generate_prime"]

#: Miller-Rabin witness rounds: a composite passes all of them with
#: probability below ``4**-20``.
MILLER_RABIN_ROUNDS = 20

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_probable_prime(n: int, *, rng: np.random.Generator | None = None) -> bool:
    """Miller-Rabin primality test with :data:`MILLER_RABIN_ROUNDS` witnesses.

    Parameters
    ----------
    n:
        Integer to test (``n >= 0``).
    rng:
        Optional generator for witness selection (falls back to a fixed set of
        deterministic witnesses plus pseudo-random ones derived from ``n``).
    """
    n = int(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_fails(a: int) -> bool:
        """Return True if witness ``a`` proves ``n`` composite."""
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    for i in range(MILLER_RABIN_ROUNDS):
        if rng is not None:
            # n can exceed the int64 range accepted by Generator.integers, so
            # build the witness from raw random bytes instead.
            num_bytes = (n.bit_length() + 7) // 8 + 1
            raw = int.from_bytes(rng.bytes(num_bytes), "big")
            a = 2 + raw % (n - 3) if n > 4 else 2
        else:
            # Deterministic witnesses: small primes, then a simple expanding sequence.
            a = _SMALL_PRIMES[i % len(_SMALL_PRIMES)] + i * 2
            a = 2 + (a % (n - 3)) if n > 4 else 2
        if witness_fails(a):
            return False
    return True


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    Parameters
    ----------
    bits:
        Bit length (``>= 8``).  Simulation-scale RSA uses 128-512 bit primes.
    rng:
        Source of candidate randomness.
    """
    if bits < 8:
        raise ValueError(f"bits must be >= 8 for prime generation, got {bits}")
    while True:
        # Draw a random odd integer with the top bit set so the product of two
        # such primes has the expected modulus size.
        raw = rng.integers(0, 2, size=bits, dtype=np.int64)
        # packbits pads the last byte with zeros on the right; shift them off.
        packed = np.packbits(raw.astype(np.uint8)).tobytes()
        candidate = int.from_bytes(packed, "big") >> (-bits % 8)
        candidate |= (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
