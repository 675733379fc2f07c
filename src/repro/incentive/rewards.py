"""Reward apportioning and bookkeeping.

A high-contribution client ``C_i`` receives ``θ_i / Σθ_k · base`` (paper
Section 3.2): the base reward of the round is split among the high
contributors in proportion to their cosine-distance contribution scores.  The
⟨client, reward⟩ pairs form the round's *reward list*, which the winning miner
records in the new block as reward transactions; the :class:`RewardLedger`
accumulates the per-client totals across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fl.aggregation import contribution_weights
from repro.utils.validation import check_non_negative

__all__ = ["RewardEntry", "apportion_rewards", "RewardLedger"]


@dataclass(frozen=True)
class RewardEntry:
    """One ⟨client, reward⟩ pair of a round's reward list."""

    client_id: int
    reward: float
    theta: float
    label: str = "high"


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
        RewardEntry(client_id=cid, reward=float(w * base_reward), theta=float(theta))
        for cid, w, theta in zip(ids, weights, t)
    ]


@dataclass
class RewardLedger:
    """Accumulates issued rewards per client across communication rounds."""

    totals: dict[int, float] = field(default_factory=dict)
    history: list[tuple[int, RewardEntry]] = field(default_factory=list)

    def record_round(self, round_index: int, entries: list[RewardEntry]) -> None:
        """Credit every entry of a round's reward list."""
        for entry in entries:
            self.totals[entry.client_id] = self.totals.get(entry.client_id, 0.0) + entry.reward
            self.history.append((int(round_index), entry))

    def top_clients(self, k: int = 5) -> list[tuple[int, float]]:
        """The ``k`` clients with the largest accumulated rewards."""
        ranked = sorted(self.totals.items(), key=lambda kv: kv[1], reverse=True)
        return [(int(c), float(v)) for c, v in ranked[: max(0, k)]]
