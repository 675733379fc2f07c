"""Per-client key registry.

"In the beginning, each client is assigned a unique private key according to
its ID, and the corresponding public key will be held by the miners"
(paper Section 4.2).  The :class:`KeyStore` implements exactly that contract:
it generates one key pair per client ID, hands the private key to the client
and exposes only public keys to miners.

A key is an identity, not experiment randomness: the pair of ``client-3`` is
a function of its ID and the modulus size alone, the same under every
experiment seed.  No history, ``tx_id``, Merkle root or PoW nonce reads a
key (signatures sit outside ``tx_id``), so which pair an entity holds changes
no result.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from repro.crypto.rsa import RSAKeyPair, rsa_verify
from repro.utils.rng import new_rng

__all__ = ["KeyStore"]

# Sweeps, searches and the serve daemon rebuild the same population once per
# cell; the bound keeps a long-lived process flat.  4096 pairs cover 4096
# entities across any number of seeds -- well over the largest signing
# population any shipped scenario or benchmark enrols (~250 entities) -- at
# ~1.4 KiB per 256-bit pair (nine ints, the key tuple and the cache link),
# under 6 MiB when full.
_DERIVED_PAIRS_MAXSIZE = 4096

# The root seed of every key stream, whatever the experiment seed.  0 keeps
# the keys seed-0 runs have always held (the golden keys in
# tests/test_crypto.py).
_KEY_NAMESPACE_SEED = 0

# ``lru_cache`` does not hold a lock while it computes, so two threads that
# enrol one entity at once (the serve daemon's workers) would both derive it.
# Key generation holds the GIL throughout, so serialising it costs nothing.
_DERIVE_LOCK = threading.Lock()


@lru_cache(maxsize=_DERIVED_PAIRS_MAXSIZE)
def derive_key_pair(key_bits: int, entity_id: str) -> RSAKeyPair:
    """The key pair of ``entity_id`` -- a pure function, memoised per process.

    The two arguments are everything the pair depends on (the experiment seed
    is not one of them) and the pair is immutable, so sharing one object
    between stores is unobservable.  Only the derivation is shared: which
    entities a store has *registered* stays in that store.
    """
    return RSAKeyPair.generate(
        new_rng(_KEY_NAMESPACE_SEED, "rsa-key", entity_id), bits=key_bits
    )


class KeyStore:
    """Registry mapping client IDs to RSA key pairs.

    Entity ``i``'s pair comes from :func:`derive_key_pair` on ``(key_bits,
    i)``: two stores of one modulus size hand an entity the same pair,
    whatever run or seed they serve.

    Parameters
    ----------
    key_bits:
        RSA modulus size.  The default (256) keeps key generation fast at
        simulation scale while exercising the full sign/verify code path.
    """

    def __init__(self, *, key_bits: int = 256) -> None:
        if key_bits < 32:
            raise ValueError(f"key_bits must be >= 32, got {key_bits}")
        self.key_bits = int(key_bits)
        self._keys: dict[str, RSAKeyPair] = {}

    def register(self, entity_id: str) -> RSAKeyPair:
        """Generate (or return the existing) key pair for ``entity_id``."""
        entity_id = str(entity_id)
        if entity_id not in self._keys:
            with _DERIVE_LOCK:
                self._keys[entity_id] = derive_key_pair(self.key_bits, entity_id)
        return self._keys[entity_id]

    def _pair(self, entity_id: str) -> RSAKeyPair:
        """The registered key pair of ``entity_id``; ``KeyError`` when unknown."""
        entity_id = str(entity_id)
        if entity_id not in self._keys:
            raise KeyError(f"no key registered for entity {entity_id!r}")
        return self._keys[entity_id]

    def public_key(self, entity_id: str) -> tuple[int, int]:
        """The ``(n, e)`` public key of ``entity_id`` (miners' view).

        Raises
        ------
        KeyError
            If the entity was never registered.
        """
        return self._pair(entity_id).public_key

    def sign(self, entity_id: str, message: bytes) -> int:
        """Sign ``message`` with the private key of ``entity_id`` (CRT form)."""
        return self._pair(entity_id).sign(message)

    def verify(self, entity_id: str, message: bytes, signature: int) -> bool:
        """Verify ``signature`` on ``message`` against the public key of ``entity_id``.

        Unknown entities verify as ``False`` rather than raising, because a
        miner receiving a transaction from an unregistered sender should simply
        reject it.
        """
        entity_id = str(entity_id)
        if entity_id not in self._keys:
            return False
        return rsa_verify(message, signature, self._keys[entity_id].public_key)

    def __len__(self) -> int:
        return len(self._keys)
