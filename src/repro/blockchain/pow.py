"""Proof of work.

Two layers are provided:

* :func:`mine_block` — the *functional* proof of work of Equation (4): search
  for a nonce such that ``SHA256(header) < Target``.  Used at low difficulty to
  demonstrate that the ledger machinery is real (hash links verify, tampering
  is detected) without burning CPU.
* :func:`sample_mining_time` — the *timing* model: at realistic difficulties a
  PoW winner's solve time is exponentially distributed with mean
  ``difficulty / hash_rate``; the winning miner is the minimum over the
  per-miner exponential draws.  The delay figures of the paper (T_bl in
  Section 4.5) are driven by this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blockchain.block import Block
from repro.crypto.hashing import difficulty_to_target, meets_target

__all__ = ["mine_block", "sample_winner"]


@dataclass(frozen=True)
class MiningResult:
    """Outcome of a nonce search."""

    success: bool
    nonce: int
    block_hash: str
    attempts: int


def mine_block(
    block: Block,
    *,
    difficulty: float = 1.0,
    max_attempts: int = 1_000_000,
    start_nonce: int = 0,
) -> MiningResult:
    """Search for a nonce satisfying Equation (4) and write it into the header.

    Parameters
    ----------
    block:
        The block to mine; its header's ``nonce`` is updated on success.
    difficulty:
        Mining difficulty (>= 1).  The target is ``MAX_TARGET / difficulty``.
    max_attempts:
        Upper bound on nonce trials; a failure result is returned if exceeded
        (callers treat this as a programming error at the low difficulties
        used in simulation).
    start_nonce:
        First nonce to try (lets different miners search disjoint ranges).
    """
    if max_attempts <= 0:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    target = difficulty_to_target(difficulty)
    block.header.difficulty = float(difficulty)
    nonce = int(start_nonce)
    for attempt in range(1, max_attempts + 1):
        block.header.nonce = nonce
        digest = block.header.compute_hash()
        if meets_target(digest, target):
            return MiningResult(success=True, nonce=nonce, block_hash=digest, attempts=attempt)
        nonce += 1
    return MiningResult(
        success=False, nonce=block.header.nonce, block_hash=block.header.compute_hash(),
        attempts=max_attempts,
    )


def sample_mining_time(
    rng: np.random.Generator,
    *,
    difficulty: float,
    hash_rate: float,
) -> float:
    """Sample one miner's PoW solve time (seconds).

    The number of hashes needed to find a block below the target is
    geometrically distributed with success probability ``1/difficulty``; at the
    hash counts of interest this is an exponential solve time with mean
    ``difficulty / hash_rate``.
    """
    if difficulty < 1.0:
        raise ValueError(f"difficulty must be >= 1, got {difficulty}")
    if hash_rate <= 0.0:
        raise ValueError(f"hash_rate must be positive, got {hash_rate}")
    mean_time = difficulty / hash_rate
    return float(rng.exponential(mean_time))


def sample_winner(
    rng: np.random.Generator,
    miner_ids: list[str],
    *,
    difficulty: float,
    hash_rates: dict[str, float] | None = None,
    default_hash_rate: float = 1.0,
) -> tuple[str, float]:
    """Sample the mining-competition winner and the winning solve time.

    Each miner draws an independent exponential solve time; the minimum wins.
    Returns ``(winner_id, winning_time_seconds)``.
    """
    if not miner_ids:
        raise ValueError("at least one miner is required to run a mining competition")
    times = []
    for mid in miner_ids:
        rate = default_hash_rate if hash_rates is None else hash_rates.get(mid, default_hash_rate)
        times.append(sample_mining_time(rng, difficulty=difficulty, hash_rate=rate))
    best = int(np.argmin(times))
    return miner_ids[best], float(times[best])
