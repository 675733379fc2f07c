"""Aggregation rules.

Two aggregation schemes are implemented:

* *simple averaging* (Algorithm 1 line 24): every uploaded vector gets weight
  ``1/n`` regardless of contribution;
* *fair aggregation* (Equation 1): weights ``p_i = θ_i / Σθ_k`` derived from
  the cosine-distance contributions produced by Algorithm 2, requiring no
  self-reported information.

Classic FedAvg's sample-size weighting is deliberately absent: it weights
each client by its self-reported data size, exactly the self-reporting the
paper argues cannot be trusted, and no system here uses it.

All functions take a ``(k, d)`` matrix of stacked parameter vectors and return
the aggregated ``(d,)`` vector; they are pure and vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.utils.vectors import NEAR_ZERO

__all__ = [
    "AggregationError",
    "simple_average",
    "contribution_weights",
    "fair_aggregate",
    "stack_updates",
    "merge_stale_updates",
]

#: Columns :func:`weighted_average` weights and sums at a time: its one
#: temporary is ``k`` rows by this many columns.
AVERAGE_BLOCK_COLUMNS = 1024


class AggregationError(ValueError):
    """An aggregation was asked to operate on invalid (e.g. empty) input.

    Subclasses :class:`ValueError` so existing callers that catch the generic
    type keep working; new code can catch the precise type.
    """


def _check_matrix(updates: np.ndarray) -> np.ndarray:
    m = np.asarray(updates, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise AggregationError(
            f"expected a non-empty (num_clients, dim) update matrix, got shape {m.shape}"
        )
    return m


def simple_average(updates: np.ndarray) -> np.ndarray:
    """Unweighted mean of the uploaded vectors (Algorithm 1, 'Simple Average')."""
    return _check_matrix(updates).mean(axis=0)


def weighted_average(updates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination of the uploaded vectors with explicit ``weights``.

    The weights are normalised to sum to one; they must be non-negative and
    not all zero.
    """
    m = _check_matrix(updates)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape[0] != m.shape[0]:
        raise AggregationError(
            f"expected {m.shape[0]} weights (one per update), got {w.shape[0]}"
        )
    if np.any(w < 0):
        raise AggregationError("aggregation weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise AggregationError("aggregation weights must not all be zero")
    # (w[:, None] / total * m).sum(axis=0), one block of columns at a time: the
    # same products summed down each column in the same row order, without a
    # (k, d) temporary.  The last block is never one column wide, because
    # numpy sums a lone column pairwise, unlike the row-by-row sum of a wider one.
    coefficients = w[:, None] / total
    d = m.shape[1]
    out = np.empty(d)
    bounds = [0, *range(AVERAGE_BLOCK_COLUMNS, d - 1, AVERAGE_BLOCK_COLUMNS), d]
    for start, stop in zip(bounds, bounds[1:]):
        np.add.reduce(coefficients * m[:, start:stop], axis=0, out=out[start:stop])
    return out


def contribution_weights(thetas: np.ndarray) -> np.ndarray:
    """Normalise cosine-distance contributions θ_i into weights p_i = θ_i / Σθ_k.

    A degenerate all-zero θ vector (every client identical to the global
    update) falls back to uniform weights, which coincides with simple
    averaging — the natural limit of Equation (1).
    """
    t = np.asarray(thetas, dtype=np.float64).ravel()
    if t.shape[0] == 0:
        raise AggregationError("at least one contribution value is required")
    if np.any(t < 0):
        raise AggregationError("contribution values (cosine distances) must be non-negative")
    total = t.sum()
    if total < NEAR_ZERO:
        return np.full(t.shape[0], 1.0 / t.shape[0])
    return t / total


def fair_aggregate(updates: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Fair aggregation of Equation (1): weight each update by its contribution.

    Parameters
    ----------
    updates:
        ``(k, d)`` matrix of uploaded parameter vectors.
    thetas:
        Length-``k`` vector of cosine distances θ_i between each upload and the
        (simple-average) global update, as computed by Algorithm 2.
    """
    weights = contribution_weights(thetas)
    return weighted_average(updates, weights)


def staleness_weights(staleness: np.ndarray, *, decay: float = 0.5) -> np.ndarray:
    """Polynomial staleness discounting for asynchronous rounds.

    An update that arrives ``s`` rounds late contributes with weight
    ``(1 + s) ** -decay`` relative to a fresh update's weight of 1 — the
    standard staleness function of asynchronous FL (Xie et al., FedAsync).
    ``decay = 0`` treats stale updates as fresh; larger values discount them
    harder.  Staleness values must be non-negative.
    """
    s = np.asarray(staleness, dtype=np.float64).ravel()
    if np.any(s < 0):
        raise AggregationError("staleness values must be non-negative")
    if decay < 0:
        raise AggregationError(f"staleness decay must be >= 0, got {decay}")
    return (1.0 + s) ** (-float(decay))


def merge_stale_updates(
    fresh_global: np.ndarray,
    fresh_count: int,
    stale_updates: np.ndarray,
    staleness: np.ndarray,
    *,
    decay: float = 0.5,
) -> np.ndarray:
    """Fold staleness-discounted late updates into an already-aggregated global.

    ``fresh_global`` is the round's aggregate over ``fresh_count`` on-time
    updates (each carrying unit weight); every row of ``stale_updates`` joins
    the convex combination with weight :func:`staleness_weights` of its
    ``staleness``.  With no stale rows the fresh aggregate is returned
    unchanged.
    """
    if fresh_count <= 0:
        raise AggregationError(f"fresh_count must be positive, got {fresh_count}")
    stale = np.asarray(stale_updates, dtype=np.float64)
    if stale.size == 0:
        return np.asarray(fresh_global, dtype=np.float64).copy()
    if stale.ndim != 2:
        raise AggregationError(
            f"expected a (num_stale, dim) stale-update matrix, got shape {stale.shape}"
        )
    w_stale = staleness_weights(staleness, decay=decay)
    if w_stale.shape[0] != stale.shape[0]:
        raise AggregationError(
            f"expected {stale.shape[0]} staleness values, got {w_stale.shape[0]}"
        )
    rows = np.vstack([np.asarray(fresh_global, dtype=np.float64)[None, :], stale])
    weights = np.concatenate([[float(fresh_count)], w_stale])
    return weighted_average(rows, weights)


def stack_updates(updates: list) -> np.ndarray:
    """Stack client updates into one ``(k, d)`` ``float64`` gradient matrix.

    Accepts anything with a ``parameters`` attribute (e.g.
    :class:`~repro.fl.client.ClientUpdate`) or raw vectors.  This is the single
    entry point through which per-client objects become the stacked matrix the
    vectorised aggregation/incentive kernels operate on.
    """
    if not updates:
        raise AggregationError("cannot stack an empty list of client updates")
    rows = [
        np.asarray(getattr(u, "parameters", u), dtype=np.float64).ravel() for u in updates
    ]
    return np.stack(rows, axis=0)

