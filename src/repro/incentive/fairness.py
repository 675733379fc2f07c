"""Fairness of the reward distribution.

The paper claims its aggregation and incentive redesign comes "with guaranteed
fairness".  :func:`jains_index` quantifies how evenly the rewards actually
issued by the mechanism are spread: 1 means perfectly equal allocations,
``1/k`` means one of ``k`` participants captured everything.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jains_index"]


def jains_index(rewards) -> float:
    """Jain's fairness index ``(Σx)² / (k·Σx²)`` of finite, non-negative ``rewards``.

    Returns 1.0 for an all-zero allocation (no reward was issued, so nobody was
    treated unequally).  The index does not change when every reward is scaled
    by one factor, so the rewards are divided by their largest first: every
    square then lies in [0, 1] and none underflows into a subnormal (which
    pushed two equal tiny rewards above 1) or overflows.
    """
    values = rewards if isinstance(rewards, np.ndarray) else list(rewards)
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("at least one reward value is required")
    if not np.all(np.isfinite(x)):
        raise ValueError("rewards must be finite")
    if np.any(x < 0):
        raise ValueError("rewards must be non-negative")
    peak = x.max()
    if peak == 0.0:
        return 1.0
    x = x / peak
    return float(np.sum(x)) ** 2 / (x.size * float(np.sum(x * x)))
