"""Client selection.

Algorithm 1 (line 3) samples ``λ·n`` clients uniformly at random each round.
With the discard strategy of Algorithm 2, low-contributing clients are
additionally excluded from the *following* round ("the corresponding workers
will no longer participate before the round" — Section 3.2), which the paper
frames as "a new method of client selection".  Both behaviours live here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomSelector", "ContributionBasedSelector"]


class RandomSelector:
    """Uniform random selection of ``ceil(λ·n)`` clients per round.

    ``participation_fraction`` is a validated scenario's ``participation``,
    in ``(0, 1]``; it is not checked again here.
    """

    def __init__(self, participation_fraction: float = 1.0) -> None:
        self.participation_fraction = float(participation_fraction)

    def num_selected(self, num_clients: int) -> int:
        """Number of clients selected from a population of ``num_clients``."""
        if num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {num_clients}")
        return max(1, int(np.ceil(self.participation_fraction * num_clients)))

    def select(self, num_clients: int, rng: np.random.Generator) -> np.ndarray:
        """Return the sorted indices of the selected clients."""
        k = self.num_selected(num_clients)
        chosen = rng.choice(num_clients, size=k, replace=False)
        return np.sort(chosen).astype(np.int64)


class ContributionBasedSelector(RandomSelector):
    """Random selection that excludes clients discarded in the previous round.

    The exclusion lasts exactly one round (the paper discards a low-contributor
    "before the round", i.e. the next one); afterwards the client re-enters the
    selection pool, since a previously noisy client may contribute usefully
    later.
    """

    def __init__(self, participation_fraction: float = 1.0) -> None:
        super().__init__(participation_fraction)
        self._excluded: set[int] = set()

    def exclude_for_next_round(self, client_ids: list[int] | np.ndarray) -> None:
        """Mark ``client_ids`` as excluded from the next selection."""
        self._excluded = {int(c) for c in np.asarray(client_ids, dtype=np.int64).ravel()}

    def select(self, num_clients: int, rng: np.random.Generator) -> np.ndarray:
        k = self.num_selected(num_clients)
        excluded = self._excluded
        # The exclusion is consumed by this selection regardless of outcome.
        self._excluded = set()
        eligible = np.array(
            [c for c in range(num_clients) if c not in excluded], dtype=np.int64
        )
        if eligible.size == 0:
            # Degenerate case: everything was discarded; fall back to the full pool
            # rather than stalling the round.
            eligible = np.arange(num_clients, dtype=np.int64)
            excluded = set()
        # Discarded workers "no longer participate before the round": the round's
        # active population shrinks by the number of discarded clients rather than
        # being backfilled, which is what gives the discard strategy its delay
        # savings (Fig. 7a) in addition to its selection effect.
        k = max(1, min(k - len(excluded), eligible.size)) if k > len(excluded) else 1
        chosen = rng.choice(eligible, size=k, replace=False)
        return np.sort(chosen).astype(np.int64)
