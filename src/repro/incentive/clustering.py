"""Clustering algorithms used by Algorithm 2.

The paper states "any suitable clustering algorithm can be used here as
needed" and adopts DBSCAN by default "because it is efficient and
straightforward".  Both DBSCAN and KMeans are implemented from scratch here
(scikit-learn is not available in this environment) over either cosine or
Euclidean distances on the stacked gradient vectors.

The clusterers return a :class:`ClusteringResult` with integer labels
(`-1` marks DBSCAN noise points) so downstream code is independent of which
algorithm produced the grouping.  ``fit`` never writes to a caller's matrix:
it copies its input before the cosine metric normalises the rows, unless the
matrix is handed over as :class:`OwnedRows` — which is how Algorithm 2 clusters
the round's own direction buffer in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.vectors import (
    normalise_rows_in_place,
    pairwise_cosine_distance_in_place,
    pairwise_euclidean_distance,
    row_norms,
)

__all__ = ["CLUSTERERS", "ClusteringResult", "DBSCAN", "OwnedRows", "make_clusterer"]

#: Algorithm names accepted by :func:`make_clusterer`.
CLUSTERERS = ("dbscan", "kmeans")

NOISE_LABEL = -1

#: Lloyd iterations :class:`KMeans` runs at most.
KMEANS_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of clustering ``k`` vectors.

    Attributes
    ----------
    labels:
        Length-``k`` integer array; ``-1`` marks noise (DBSCAN only).
    num_clusters:
        Number of distinct non-noise clusters.
    """

    labels: np.ndarray
    num_clusters: int

    def cluster_of(self, index: int) -> int:
        """Label of the vector at ``index``."""
        return int(self.labels[int(index)])


@dataclass(frozen=True)
class OwnedRows:
    """A ``float64`` row matrix handed over to a clusterer's ``fit`` to overwrite.

    ``fit`` copies any other input first.  Algorithm 2 hands over its
    ``W ∪ {w_{r+1}}`` buffer this way once it has read θ from it, so the
    cosine metric normalises that buffer instead of a copy of it.  ``norms``
    are the rows' :func:`~repro.utils.vectors.row_norms` when the caller
    has them already (Algorithm 2 read θ from them); the cosine metric
    computes them otherwise.
    """

    rows: np.ndarray
    norms: np.ndarray | None = None


def _owned_vectors(vectors) -> OwnedRows:
    """The matrix ``fit`` may overwrite: the handed-over rows, else a copy."""
    if not isinstance(vectors, OwnedRows):
        vectors = OwnedRows(np.array(vectors, dtype=np.float64))
    shape = vectors.rows.shape
    if len(shape) != 2 or shape[0] == 0:
        raise ValueError(f"expected a non-empty (k, d) matrix, got shape {shape}")
    return vectors


def _norms(owned: OwnedRows) -> np.ndarray:
    """The handed-over rows' norms, computed if the caller had none."""
    return row_norms(owned.rows) if owned.norms is None else owned.norms


def _distance_matrix(owned: OwnedRows, metric: str) -> np.ndarray:
    if metric == "cosine":
        return pairwise_cosine_distance_in_place(owned.rows, _norms(owned))
    if metric == "euclidean":
        return pairwise_euclidean_distance(owned.rows)
    raise ValueError(f"unknown metric {metric!r}; expected 'cosine' or 'euclidean'")


class DBSCAN:
    """Density-based spatial clustering (Ester et al., 1996).

    Parameters
    ----------
    eps:
        Neighbourhood radius in the chosen metric.
    min_samples:
        Minimum neighbourhood size (including the point itself) for a core point.
    metric:
        ``"cosine"`` (default, appropriate for gradient direction comparison)
        or ``"euclidean"``.
    """

    def __init__(self, eps: float = 0.5, min_samples: int = 3, metric: str = "cosine") -> None:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.eps = float(eps)
        self.min_samples = int(min_samples)
        self.metric = metric

    def fit(self, vectors: np.ndarray | OwnedRows) -> ClusteringResult:
        """Cluster the rows of ``vectors`` and return the labelling."""
        distances = _distance_matrix(_owned_vectors(vectors), self.metric)
        n = distances.shape[0]
        neighbours = [np.flatnonzero(distances[i] <= self.eps) for i in range(n)]
        is_core = np.array([len(nb) >= self.min_samples for nb in neighbours])

        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        cluster_id = 0
        for seed in range(n):
            if labels[seed] != NOISE_LABEL or not is_core[seed]:
                continue
            # Breadth-first expansion from this core point.
            labels[seed] = cluster_id
            frontier = list(neighbours[seed])
            while frontier:
                point = int(frontier.pop())
                if labels[point] == NOISE_LABEL:
                    labels[point] = cluster_id
                    if is_core[point]:
                        frontier.extend(int(x) for x in neighbours[point] if labels[x] == NOISE_LABEL)
            cluster_id += 1
        return ClusteringResult(labels=labels, num_clusters=cluster_id)


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation.

    Provided as the alternative clusterer for the ablation called out in
    DESIGN.md; operates in Euclidean space (vectors are L2-normalised first
    when ``metric="cosine"`` so that Euclidean closeness approximates angular
    closeness).
    """

    def __init__(self, num_clusters: int = 2, *, metric: str = "cosine", seed: int = 0) -> None:
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if metric not in {"cosine", "euclidean"}:
            raise ValueError(f"unknown metric {metric!r}; expected 'cosine' or 'euclidean'")
        self.num_clusters = int(num_clusters)
        self.metric = metric
        self.seed = int(seed)

    def fit(self, vectors: np.ndarray | OwnedRows) -> ClusteringResult:
        """Cluster the rows of ``vectors`` and return the labelling."""
        owned = _owned_vectors(vectors)
        v = owned.rows
        if self.metric == "cosine":
            normalise_rows_in_place(v, _norms(owned))
        n = v.shape[0]
        k = min(self.num_clusters, n)
        rng = np.random.default_rng(self.seed)

        # k-means++ seeding.
        centers = [v[rng.integers(0, n)]]
        while len(centers) < k:
            dist2 = np.min(
                np.stack([np.sum((v - c) ** 2, axis=1) for c in centers], axis=0), axis=0
            )
            total = dist2.sum()
            if total <= 0:
                centers.append(v[rng.integers(0, n)])
                continue
            probs = dist2 / total
            centers.append(v[rng.choice(n, p=probs)])
        centroids = np.stack(centers, axis=0)

        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITERATIONS):
            dists = np.sum((v[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            new_labels = np.argmin(dists, axis=1)
            if np.array_equal(new_labels, labels) and _ > 0:
                break
            labels = new_labels
            for c in range(k):
                members = v[labels == c]
                if members.shape[0] > 0:
                    centroids[c] = members.mean(axis=0)
        return ClusteringResult(labels=labels, num_clusters=int(len(np.unique(labels))))


def make_clusterer(
    name: str,
    *,
    eps: float = 0.5,
    min_samples: int = 3,
    num_clusters: int = 2,
    seed: int = 0,
):
    """Factory resolving a clustering algorithm by name (``"dbscan"`` or
    ``"kmeans"``), clustering by cosine distance."""
    key = name.strip().lower()
    if key == "dbscan":
        return DBSCAN(eps=eps, min_samples=min_samples)
    if key == "kmeans":
        return KMeans(num_clusters=num_clusters, seed=seed)
    raise ValueError(f"unknown clustering algorithm {name!r}; expected one of {CLUSTERERS}")
