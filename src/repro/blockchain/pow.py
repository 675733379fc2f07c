"""Proof of work: the functional layer of Equation (4).

:func:`mine_block` searches for a nonce such that ``SHA256(header) < Target``.
It runs at low difficulty to show that the ledger machinery is real (hash
links verify, tampering is detected) without burning CPU.  How long a solve
takes, and so which miner wins, is not modelled here: the event kernel's
mining race (:mod:`repro.sim.rounds`) prices T_bl (Section 4.5) and names
the block's signer from the same per-miner draws.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockchain.block import Block
from repro.crypto.hashing import difficulty_to_target, meets_target

__all__ = ["mine_block"]


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

