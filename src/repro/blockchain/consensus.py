"""Consensus: the fork-cost model.

FAIR-BFL avoids forks entirely (Assumptions 1 + 2 mean one block per round and
all miners stop as soon as a valid block arrives), so its consensus step is a
simple validate-and-append.  The vanilla-blockchain baseline, however, pays a
fork-resolution cost that grows with the number of miners — the paper observes
an "approximately exponential" delay growth in Figure 6b.  :class:`ForkModel`
captures that effect: each of the ``m - 1`` runners-up collides with the
winner with a fixed probability, so forks grow with the miner count, and each
fork costs extra merge time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_non_negative, check_probability

__all__ = ["ForkModel"]


@dataclass
class ForkModel:
    """Stochastic fork-occurrence and fork-cost model for PoW blockchains.

    Parameters
    ----------
    base_fork_probability:
        Per-runner-up probability that its solution collides with the
        winner's (calibrated constant).
    merge_cost:
        Seconds of extra delay incurred to resolve one fork (orphaned work,
        re-broadcast, chain reorganisation).
    """

    base_fork_probability: float = 0.05
    merge_cost: float = 2.0

    def __post_init__(self) -> None:
        self.base_fork_probability = check_probability(
            "base_fork_probability", self.base_fork_probability
        )
        self.merge_cost = check_non_negative("merge_cost", self.merge_cost)

    def sample_collisions(self, rng: np.random.Generator, num_miners: int) -> int:
        """Sample how many runner-ups collide with the winner in one competition."""
        if num_miners <= 1:
            return 0
        return int(rng.binomial(num_miners - 1, self.base_fork_probability))

    def merge_schedule(self, collisions: int) -> list[float]:
        """Per-merge durations for ``collisions`` simultaneous forks.

        Merges are serialised reorganisations, one per colliding branch; each
        extra simultaneous branch compounds the per-merge effort slightly.
        The event kernel schedules these back to back, and their sum is the
        closed-form fork cost ``merge_cost · c · (1 + 0.25·(c − 1))``.
        """
        if collisions <= 0:
            return []
        per_merge = float(self.merge_cost * (1.0 + 0.25 * (collisions - 1)))
        return [per_merge] * collisions
