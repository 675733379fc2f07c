"""Partitioning a dataset across federated clients.

The paper assigns data "following the non-IID dynamics" by default
(Section 5.1) and additionally reports an IID variant for Table 2.  We provide
the three standard schemes used in the FL literature:

* :func:`iid_partition` — uniform random split;
* :func:`shard_partition` — label-sorted shards, the classic non-IID scheme of
  the FedAvg paper (each client holds a small number of classes);
* :func:`dirichlet_partition` — label-distribution skew controlled by a
  Dirichlet concentration parameter ``alpha``.

All partitioners return a list of index arrays (one per client) covering the
dataset without overlap, and all draw randomness from an explicit generator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "partition_dataset",
]


def _check_args(num_samples: int, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if num_samples < num_clients:
        raise ValueError(
            f"cannot partition {num_samples} samples across {num_clients} clients "
            f"(each client needs at least one sample)"
        )


def iid_partition(
    labels: np.ndarray, num_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniform random split of all sample indices into ``num_clients`` groups."""
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    perm = rng.permutation(labels.shape[0])
    return [np.sort(chunk).astype(np.int64) for chunk in np.array_split(perm, num_clients)]


def shard_partition(
    labels: np.ndarray,
    num_clients: int,
    rng: np.random.Generator,
    *,
    shards_per_client: int = 2,
) -> list[np.ndarray]:
    """Label-sorted shard partition (FedAvg-style pathological non-IID).

    The samples are sorted by label, cut into ``num_clients * shards_per_client``
    contiguous shards, and each client receives ``shards_per_client`` random
    shards — so a client typically sees only a couple of classes.
    """
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    if shards_per_client <= 0:
        raise ValueError(f"shards_per_client must be positive, got {shards_per_client}")
    num_shards = num_clients * shards_per_client
    if num_shards > labels.shape[0]:
        raise ValueError(
            f"need at least {num_shards} samples for {num_clients} clients x "
            f"{shards_per_client} shards, got {labels.shape[0]}"
        )
    sorted_idx = np.argsort(labels, kind="stable")
    shards = np.array_split(sorted_idx, num_shards)
    order = rng.permutation(num_shards)
    partitions: list[np.ndarray] = []
    for c in range(num_clients):
        shard_ids = order[c * shards_per_client : (c + 1) * shards_per_client]
        idx = np.concatenate([shards[s] for s in shard_ids])
        partitions.append(np.sort(idx).astype(np.int64))
    return partitions


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    rng: np.random.Generator,
    *,
    alpha: float = 0.5,
) -> list[np.ndarray]:
    """Label-distribution-skew partition with Dirichlet concentration ``alpha``.

    Smaller ``alpha`` means more skew (each client dominated by few classes);
    ``alpha -> inf`` approaches IID.  The partition is re-sampled (bounded
    number of retries) until every client has a sample.
    """
    labels = np.asarray(labels)
    _check_args(labels.shape[0], num_clients)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    classes = np.unique(labels)
    for _attempt in range(100):
        client_indices: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for cls in classes:
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            weights = rng.dirichlet(np.full(num_clients, alpha))
            # Cumulative proportions -> split points for this class's samples.
            split_points = (np.cumsum(weights)[:-1] * cls_idx.shape[0]).astype(np.int64)
            for client, chunk in enumerate(np.split(cls_idx, split_points)):
                client_indices[client].append(chunk)
        partitions = [
            np.sort(np.concatenate(chunks)).astype(np.int64) if chunks else np.zeros(0, np.int64)
            for chunks in client_indices
        ]
        if all(p.shape[0] for p in partitions):
            return partitions
    raise RuntimeError(
        "dirichlet_partition failed to produce a partition where every client "
        "has a sample after 100 attempts; "
        "increase alpha or the dataset size"
    )


def partition_dataset(
    labels: np.ndarray,
    num_clients: int,
    rng: np.random.Generator,
    *,
    scheme: str = "shard",
    shards_per_client: int = 2,
    alpha: float = 0.5,
) -> list[np.ndarray]:
    """Partition sample ``labels`` by the named scheme and return per-client index arrays.

    Parameters
    ----------
    scheme:
        ``"iid"``, ``"shard"`` (default, the paper's non-IID setting), or
        ``"dirichlet"``.
    """
    key = scheme.strip().lower()
    if key == "iid":
        return iid_partition(labels, num_clients, rng)
    if key in {"shard", "non-iid", "noniid"}:
        return shard_partition(labels, num_clients, rng, shards_per_client=shards_per_client)
    if key == "dirichlet":
        return dirichlet_partition(labels, num_clients, rng, alpha=alpha)
    raise ValueError(
        f"unknown partition scheme {scheme!r}; expected 'iid', 'shard', or 'dirichlet'"
    )
