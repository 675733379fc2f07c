"""Per-client key registry.

"In the beginning, each client is assigned a unique private key according to
its ID, and the corresponding public key will be held by the miners"
(paper Section 4.2).  The :class:`KeyStore` implements exactly that contract:
it generates one key pair per client ID, hands the private key to the client
and exposes only public keys to miners.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.rsa import RSAKeyPair, rsa_verify
from repro.utils.rng import new_rng

__all__ = ["KeyStore"]

# Sweeps, searches and the serve daemon rebuild the same population once per
# cell; the bound keeps a long-lived process flat.  4096 pairs cover the
# largest signing population any shipped scenario or benchmark enrols
# (~250 entities) times a dozen seeds, at ~1.4 KiB per 256-bit pair (nine
# ints, the key tuple and the cache link) -- under 6 MiB when full.
_DERIVED_PAIRS_MAXSIZE = 4096


@lru_cache(maxsize=_DERIVED_PAIRS_MAXSIZE)
def derive_key_pair(seed: int, key_bits: int, entity_id: str) -> RSAKeyPair:
    """The key pair of ``entity_id`` under ``seed`` -- a pure function, memoised per process.

    The three arguments are everything the pair depends on and the pair is
    immutable, so sharing one object between stores is unobservable.  Only the
    derivation is shared: which entities a store has *registered* stays in
    that store.
    """
    return RSAKeyPair.generate(new_rng(seed, "rsa-key", entity_id), bits=key_bits)


class KeyStore:
    """Registry mapping client IDs to RSA key pairs.

    Parameters
    ----------
    seed:
        Experiment seed; key generation for client ``i`` uses an independent
        stream derived from ``(seed, "rsa-key", i)``.
    key_bits:
        RSA modulus size.  The default (256) keeps key generation fast at
        simulation scale while exercising the full sign/verify code path.
    """

    def __init__(self, seed: int = 0, *, key_bits: int = 256) -> None:
        if key_bits < 32:
            raise ValueError(f"key_bits must be >= 32, got {key_bits}")
        self.seed = int(seed)
        self.key_bits = int(key_bits)
        self._keys: dict[str, RSAKeyPair] = {}

    def register(self, entity_id: str) -> RSAKeyPair:
        """Generate (or return the existing) key pair for ``entity_id``."""
        entity_id = str(entity_id)
        if entity_id not in self._keys:
            self._keys[entity_id] = derive_key_pair(self.seed, self.key_bits, entity_id)
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
