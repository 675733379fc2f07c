"""Robust-aggregation defenses over the stacked gradient matrix.

The paper's own defense is *detection*: Algorithm 2 clusters the uploaded
gradients, marks the global update's cluster as high contribution, and the
discard strategy drops the rest.  This module adds the complementary family
from the robust-FL literature — aggregation rules that bound what any single
forged gradient can do to the global update, independent of clustering:

* **norm clipping** — rescale update directions whose ℓ2 norm exceeds the
  round's median norm (defuses scaled forgeries);
* **Krum / multi-Krum** (Blanchard et al., 2017) — score each row by the sum
  of squared distances to its nearest neighbours and keep the best-scoring
  row (Krum) or the ``n - m`` best rows (multi-Krum);
* **coordinate-wise median** (Yin et al., 2018) — aggregate each coordinate
  as the median across rows;
* **trimmed mean** (Yin et al., 2018) — drop the largest and smallest
  ``ceil(f·n)`` values per coordinate and average the rest.

Every defense is a :class:`DefensePipeline`, built from a name or a
``"+"``-chain such as ``"norm_clip+krum"`` by :func:`make_defense`.  It takes
the ``(k, d)`` matrix of *update directions* (rows minus the previous global
parameters — the space where the shared starting point cancels) and returns a
:class:`RobustOutcome` naming the surviving rows, the possibly-clipped
matrix, and the robust aggregate direction.  Its stages are of two kinds, and
the distinction matters downstream:

* *filters* (norm clipping, Krum) implement ``filter(m)`` and clip or select
  rows; the pipeline averages their survivors once, and the caller may
  re-weight them with the paper's Equation (1);
* *aggregate-replacing* rules (median, trimmed mean;
  ``replaces_aggregation = True``) implement ``aggregate(m)`` and may only end
  a chain — their aggregate **is** the round's global update, and Procedure
  II runs only for its detection/reward side effects.

A pipeline *consumes* the matrix it is given: clipping rescales rows in
place and Krum moves its survivors up to the leading rows, so the outcome's
``deltas`` is a view of the input and a round keeps one copy of its gradients
(every caller hands over a matrix it owns).  :func:`clip_rows` is in place for
the same reason; the scoring and aggregating kernels (distances, Krum scores,
median, trimmed mean) never write their input.  Every kernel is vectorised
and deterministic (stable argsort tie-breaking), so the repository's
bit-identical-across-backends guarantee holds.  See ``docs/threat_model.md``
for the attack↔defense catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.aggregation import AggregationError
from repro.utils.vectors import compact_rows_in_place, row_norms

__all__ = [
    "DEFENSES",
    "DefensePipeline",
    "make_defense",
    "check_defense",
]

#: Primitive defense names accepted by :func:`make_defense` (chain with "+").
DEFENSES = ("none", "norm_clip", "krum", "multi_krum", "median", "trimmed_mean")


def _check_matrix(deltas: np.ndarray) -> np.ndarray:
    m = np.asarray(deltas, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise AggregationError(
            f"expected a non-empty (num_clients, dim) direction matrix, got shape {m.shape}"
        )
    return m


# -- kernels ------------------------------------------------------------------
def pairwise_sq_distances(matrix: np.ndarray) -> np.ndarray:
    """Squared euclidean distance between every pair of rows, as a ``(k, k)`` matrix."""
    m = _check_matrix(matrix)
    sq = np.einsum("ij,ij->i", m, m)
    d = sq[:, None] + sq[None, :] - 2.0 * (m @ m.T)
    np.maximum(d, 0.0, out=d)
    return d


def krum_scores(matrix: np.ndarray, num_attackers: int) -> np.ndarray:
    """Per-row Krum scores: the sum of each row's ``k - m - 2`` smallest squared distances.

    The neighbour count is clamped to at least one, so the score stays defined
    in the degenerate regimes the theory excludes (``m >= (k - 2) / 2``, tiny
    rounds); a single-row matrix scores ``[0.0]``.
    """
    m = _check_matrix(matrix)
    k = m.shape[0]
    if num_attackers < 0:
        raise AggregationError(f"num_attackers must be >= 0, got {num_attackers}")
    if k == 1:
        return np.zeros(1)
    neighbours = max(1, min(k - 1, k - int(num_attackers) - 2))
    dists = pairwise_sq_distances(m)
    np.fill_diagonal(dists, np.inf)
    nearest = np.sort(dists, axis=1)[:, :neighbours]
    return nearest.sum(axis=1)


def clip_rows(matrix: np.ndarray, max_norm: float) -> tuple[np.ndarray, int]:
    """Scale rows with ℓ2 norm above ``max_norm`` down to it, in place.

    Returns the clipped matrix (``matrix`` itself when it is already a
    ``float64`` array) and the number of rows that were rescaled.
    ``max_norm <= 0`` (an all-zero round) leaves the matrix untouched.
    """
    m = _check_matrix(matrix)
    if max_norm <= 0.0:
        return m, 0
    norms = row_norms(m)
    over = np.flatnonzero(norms > max_norm)
    for row, scale in zip(over, max_norm / norms[over]):
        m[row] *= scale
    return m, int(over.size)


def coordinate_median(matrix: np.ndarray) -> np.ndarray:
    """Coordinate-wise median across rows."""
    return np.median(_check_matrix(matrix), axis=0)


def trimmed_mean(matrix: np.ndarray, trim: int) -> np.ndarray:
    """Mean of each coordinate after dropping the ``trim`` largest and smallest values.

    ``trim`` is clamped so at least one value per coordinate survives.
    """
    m = _check_matrix(matrix)
    k = m.shape[0]
    if trim < 0:
        raise AggregationError(f"trim must be >= 0, got {trim}")
    t = min(int(trim), (k - 1) // 2)
    if t == 0:
        return m.mean(axis=0)
    ordered = np.sort(m, axis=0)
    return ordered[t : k - t].mean(axis=0)


# -- the pipeline -------------------------------------------------------------
@dataclass(frozen=True)
class RobustOutcome:
    """What a :class:`DefensePipeline` did to a round's direction matrix.

    Attributes
    ----------
    deltas:
        The surviving (possibly clipped) direction rows, in input order: the
        leading rows of the pipeline's input, which it overwrote.
    kept_indices:
        Indices into the *input* rows that survived filtering.
    aggregate:
        The robust aggregate direction over the survivors.
    clipped:
        Number of rows whose norm was reduced by a clipping stage.
    """

    deltas: np.ndarray
    kept_indices: tuple[int, ...]
    aggregate: np.ndarray
    clipped: int = 0


class NormClipDefense:
    """Clip direction norms to the round's median norm.

    A scaled forgery (model-replacement style) relies on one row's magnitude
    dominating the mean; clipping to the median norm bounds every row's pull
    without rejecting anyone.
    """

    name = "norm_clip"
    replaces_aggregation = False

    def filter(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Return ``(m clipped in place, kept row indices, rows clipped)``."""
        clipped, count = clip_rows(m, float(np.median(row_norms(m))))
        return clipped, np.arange(m.shape[0]), count


class KrumDefense:
    """Krum / multi-Krum selection (Blanchard et al., 2017).

    Sizes itself for ``ceil(attacker_fraction · k)`` adversaries among ``k``
    rows.  Classic Krum (``multi=False``) keeps the single best-scoring row;
    multi-Krum keeps the ``k - m`` best rows (never fewer than one).
    Selection, not averaging, carries the robustness, so the survivors may be
    re-weighted downstream (Equation 1).
    """

    replaces_aggregation = False

    def __init__(self, attacker_fraction: float = 0.2, *, multi: bool = False) -> None:
        if not (0.0 <= attacker_fraction < 0.5):
            raise ValueError(
                f"attacker_fraction must lie in [0, 0.5), got {attacker_fraction}"
            )
        self.attacker_fraction = float(attacker_fraction)
        self.multi = bool(multi)
        self.name = "multi_krum" if multi else "krum"

    def filter(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Return ``(selected rows moved to m's top, their input indices, 0)``."""
        k = m.shape[0]
        num_attackers = int(np.ceil(self.attacker_fraction * k))
        scores = krum_scores(m, num_attackers)
        select = max(1, k - num_attackers) if self.multi else 1
        kept = np.sort(np.argsort(scores, kind="stable")[:select])
        return compact_rows_in_place(m, kept), kept, 0


class MedianDefense:
    """Coordinate-wise median (Yin et al., 2018): the aggregate IS the rule."""

    name = "median"
    replaces_aggregation = True

    def aggregate(self, m: np.ndarray) -> np.ndarray:
        return coordinate_median(m)


class TrimmedMeanDefense:
    """Coordinate-wise trimmed mean sized for ``ceil(attacker_fraction · k)`` outliers."""

    name = "trimmed_mean"
    replaces_aggregation = True

    def __init__(self, attacker_fraction: float = 0.2) -> None:
        if not (0.0 <= attacker_fraction < 0.5):
            raise ValueError(
                f"attacker_fraction must lie in [0, 0.5), got {attacker_fraction}"
            )
        self.attacker_fraction = float(attacker_fraction)

    def aggregate(self, m: np.ndarray) -> np.ndarray:
        return trimmed_mean(m, int(np.ceil(self.attacker_fraction * m.shape[0])))


class DefensePipeline:
    """Chain defenses left-to-right and aggregate the survivors once.

    Every stage but an aggregate-replacing last one is a filter that clips or
    selects rows (e.g. ``"norm_clip+krum"``); each sees the previous stage's
    survivors.  The aggregate is the last stage's rule when it replaces
    aggregation (median / trimmed mean), else the plain mean of the
    survivors.  Kept indices are composed back into input-row indices; clip
    counts accumulate.  Filters work in place, so :meth:`apply` overwrites
    its input: callers pass a matrix they own and read the survivors back
    from ``outcome.deltas``.
    """

    def __init__(self, stages: list) -> None:
        if not stages:
            raise ValueError("a defense pipeline needs at least one stage")
        self.stages = list(stages)
        self.name = "+".join(stage.name for stage in self.stages)
        self.replaces_aggregation = self.stages[-1].replaces_aggregation

    def apply(self, deltas: np.ndarray) -> RobustOutcome:
        """Filter the ``(k, d)`` direction matrix in place and aggregate the survivors."""
        m = _check_matrix(deltas)
        kept = np.arange(m.shape[0])
        clipped = 0
        filters = self.stages[:-1] if self.replaces_aggregation else self.stages
        for stage in filters:
            m, stage_kept, count = stage.filter(m)
            kept = kept[stage_kept]
            clipped += count
        if self.replaces_aggregation:
            aggregate = self.stages[-1].aggregate(m)
        else:
            aggregate = m.mean(axis=0)
        return RobustOutcome(
            deltas=m,
            kept_indices=tuple(int(i) for i in kept),
            aggregate=aggregate,
            clipped=clipped,
        )


# -- factory ------------------------------------------------------------------
def _make_primitive(name: str, attacker_fraction: float):
    if name == "norm_clip":
        return NormClipDefense()
    if name == "krum":
        return KrumDefense(attacker_fraction, multi=False)
    if name == "multi_krum":
        return KrumDefense(attacker_fraction, multi=True)
    if name == "median":
        return MedianDefense()
    if name == "trimmed_mean":
        return TrimmedMeanDefense(attacker_fraction)
    raise ValueError(
        f"unknown defense {name!r}; expected one of: " + ", ".join(DEFENSES)
    )


def make_defense(name: str, *, attacker_fraction: float = 0.2) -> DefensePipeline | None:
    """Resolve a defense to a pipeline; ``"none"`` returns ``None`` (no defense layer).

    ``name`` may chain primitives with ``"+"`` (applied left to right), e.g.
    ``"norm_clip+multi_krum"``.  ``attacker_fraction`` sizes Krum's selection
    and the trimmed mean's trim width.
    """
    key = name.strip().lower()
    parts = [part.strip() for part in key.split("+") if part.strip()]
    if not parts:
        raise ValueError(f"empty defense name {name!r}")
    if parts == ["none"]:
        return None
    if "none" in parts:
        raise ValueError(f"'none' cannot be combined with other defenses: {name!r}")
    stages = [_make_primitive(part, attacker_fraction) for part in parts]
    for stage in stages[:-1]:
        if stage.replaces_aggregation:
            raise ValueError(
                f"aggregate-replacing defense {stage.name!r} must be the last "
                f"stage of a pipeline, got {name!r}"
            )
    return DefensePipeline(stages)


def check_defense(name: str) -> str:
    """Validate a defense name (incl. '+'-chains); returns the name.

    The scenario's ``defense`` field rule, so a misconfigured defense fails at
    validation with the same message :func:`make_defense` would raise (the
    ``defense_fraction`` field's own rule keeps every pipeline size valid).
    """
    make_defense(name)
    return name
