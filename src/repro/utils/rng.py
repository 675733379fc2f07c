"""Deterministic random-number management.

Every stochastic component in the reproduction (data synthesis, client
selection, attacker designation, mining-time sampling, network latency) draws
from a :class:`numpy.random.Generator` created through this module, so a single
experiment seed reproduces the whole run, including Table 2's per-round
attacker indices.

The paper does not document its seeding scheme; we adopt the standard
SeedSequence-based derivation recommended by NumPy so that independent
components get statistically independent streams.
"""

from __future__ import annotations

import hashlib
import numpy as np

__all__ = ["new_rng"]


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation hashes the textual representation of the labels with
    SHA-256, which gives well-mixed, order-sensitive child seeds without
    requiring the labels to be integers.

    Parameters
    ----------
    base_seed:
        The experiment-level seed.
    labels:
        Arbitrary hashable/printable objects identifying the consumer, e.g.
        ``("client", 17, "round", 3)``.

    Returns
    -------
    int
        A 63-bit non-negative integer suitable for seeding ``default_rng``.
    """
    payload = repr((int(base_seed),) + tuple(repr(x) for x in labels)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def new_rng(base_seed: int, *labels: object) -> np.random.Generator:
    """Create an independent :class:`numpy.random.Generator` for a component."""
    return np.random.default_rng(derive_seed(base_seed, *labels))
