"""Proof of work.

Two layers are provided:

* :func:`mine_block` — the *functional* proof of work of Equation (4): search
  for a nonce such that ``SHA256(header) < Target``.  Used at low difficulty to
  demonstrate that the ledger machinery is real (hash links verify, tampering
  is detected) without burning CPU.
* :func:`sample_winner` — the *timing* model: at realistic difficulties a
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
    attempts: int


def mine_block(
    block: Block,
    *,
    difficulty: float = 1.0,
    max_attempts: int = 1_000_000,
) -> MiningResult:
    """Search for a nonce satisfying Equation (4) and write it into the header.

    Parameters
    ----------
    block:
        The block to mine; its header's ``nonce`` is updated on success.
    difficulty:
        Mining difficulty (>= 1).  The target is ``MAX_TARGET / difficulty``.
    max_attempts:
        Upper bound on nonce trials, counted from nonce 0; a failure result
        is returned if exceeded (callers treat this as a programming error
        at the low difficulties used in simulation).
    """
    if max_attempts <= 0:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    target = difficulty_to_target(difficulty)
    block.header.difficulty = float(difficulty)
    for nonce in range(max_attempts):
        block.header.nonce = nonce
        if meets_target(block.header.compute_hash(), target):
            return MiningResult(success=True, attempts=nonce + 1)
    return MiningResult(success=False, attempts=max_attempts)


def sample_winner(
    rng: np.random.Generator,
    miner_ids: list[str],
    *,
    difficulty: float,
) -> tuple[str, float]:
    """Sample the mining-competition winner and the winning solve time.

    The number of hashes a miner needs to find a block below the target is
    geometrically distributed with success probability ``1/difficulty``; at
    the hash counts of interest this is an exponential solve time with mean
    ``difficulty / hash_rate``, every miner hashing at rate 1.  Each miner
    draws its time independently, in ``miner_ids`` order, and the minimum
    wins.  Returns ``(winner_id, winning_time_seconds)``.
    """
    if not miner_ids:
        raise ValueError("at least one miner is required to run a mining competition")
    if difficulty < 1.0:
        raise ValueError(f"difficulty must be >= 1, got {difficulty}")
    times = [float(rng.exponential(difficulty)) for _ in miner_ids]
    best = int(np.argmin(times))
    return miner_ids[best], times[best]
