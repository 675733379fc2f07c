"""Reward apportioning.

A high-contribution client ``C_i`` receives ``θ_i / Σθ_k · base`` (paper
Section 3.2): the base reward of the round is split among the high
contributors in proportion to their cosine-distance contribution scores.  The
⟨client, reward⟩ pairs form the round's *reward list*, which the winning miner
records in the new block as reward transactions.  The chain is the only
balance: a client's total is what the canonical chain's reward transactions
sum to (:meth:`repro.blockchain.chain.Blockchain.total_rewards_by_client`), so
rewards minted on a fork a reorg discards are void without any bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.aggregation import contribution_weights
from repro.utils.validation import check_non_negative

__all__ = ["RewardEntry", "apportion_rewards"]


@dataclass(frozen=True)
class RewardEntry:
    """One ⟨client, reward⟩ pair of a round's reward list (high contributors only)."""

    client_id: int
    reward: float


def apportion_rewards(
    client_ids: list[int] | np.ndarray,
    thetas: np.ndarray,
    *,
    base_reward: float = 1.0,
) -> list[RewardEntry]:
    """Split ``base_reward`` among ``client_ids`` proportionally to their θ values.

    Degenerate all-zero θ vectors (every upload identical to the global
    update) fall back to an equal split, mirroring
    :func:`repro.fl.aggregation.contribution_weights`.
    """
    ids = [int(c) for c in np.asarray(client_ids).ravel()]
    t = np.asarray(thetas, dtype=np.float64).ravel()
    if len(ids) != t.shape[0]:
        raise ValueError(
            f"client_ids and thetas must align, got {len(ids)} ids and {t.shape[0]} thetas"
        )
    base_reward = check_non_negative("base_reward", base_reward)
    if not ids:
        return []
    weights = contribution_weights(t)
    return [
        RewardEntry(client_id=cid, reward=float(w * base_reward)) for cid, w in zip(ids, weights)
    ]

