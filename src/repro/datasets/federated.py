"""Federated dataset containers.

A :class:`FederatedDataset` owns the full dataset plus a per-client partition
and a shared held-out test set.  Clients see their shard through a
:class:`ClientDataset`, which also provides the verification split used to
compute the per-client accuracy that the paper averages every round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.datasets.partition import partition_dataset
from repro.datasets.synthetic_mnist import NUM_CLASSES, SyntheticMNIST, load_synthetic_mnist
from repro.utils.rng import new_rng

__all__ = [
    "ClientDataset",
    "FederatedDataset",
    "inject_label_noise",
    "build_federated_dataset",
]

#: The share of the flat dataset held out as the global test set, and of each
#: client shard held out as its verification split.
TEST_FRACTION = 0.15
CLIENT_VAL_FRACTION = 0.2


def _split_indices(
    n: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The one split rule: shuffle ``range(n)`` and hold out
    ``max(1, round(n * fraction))`` indices, keeping at least one on the
    other side.  Returns ``(kept, held_out)``."""
    if n < 2:
        raise ValueError(f"cannot split {n} sample(s) into two non-empty parts")
    held = min(max(1, int(round(n * fraction))), n - 1)
    perm = rng.permutation(n)
    return perm[held:], perm[:held]


@dataclass
class ClientDataset:
    """The data shard held by one federated client.

    Attributes
    ----------
    client_id:
        The index of the owning client.
    images, labels:
        Local training data.
    val_images, val_labels:
        Local verification split (used for the per-client accuracy the paper
        averages into "average accuracy").
    """

    client_id: int
    images: np.ndarray
    labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.val_images = np.asarray(self.val_images, dtype=np.float64)
        self.val_labels = np.asarray(self.val_labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must have the same number of rows")
        if self.val_images.shape[0] != self.val_labels.shape[0]:
            raise ValueError("val_images and val_labels must have the same number of rows")
        if self.images.shape[0] == 0:
            raise ValueError(f"client {self.client_id} received an empty training shard")

    @property
    def num_samples(self) -> int:
        """Number of local training samples (the self-reported 'data size')."""
        return int(self.images.shape[0])


@dataclass
class FederatedDataset:
    """A dataset partitioned across ``num_clients`` clients plus a global test set."""

    clients: list[ClientDataset]
    test_images: np.ndarray
    test_labels: np.ndarray
    scheme: str = "shard"

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("FederatedDataset requires at least one client shard")
        self.test_images = np.asarray(self.test_images, dtype=np.float64)
        self.test_labels = np.asarray(self.test_labels, dtype=np.int64)

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    def client(self, client_id: int) -> ClientDataset:
        """Return the shard of ``client_id``."""
        if not (0 <= client_id < len(self.clients)):
            raise IndexError(
                f"client_id must lie in [0, {len(self.clients)}), got {client_id}"
            )
        return self.clients[client_id]

    @classmethod
    def from_dataset(
        cls,
        dataset: SyntheticMNIST,
        num_clients: int,
        rng: np.random.Generator,
        *,
        scheme: str = "shard",
        shards_per_client: int = 2,
        alpha: float = 0.5,
    ) -> "FederatedDataset":
        """Build a federated dataset from a flat dataset.

        The flat dataset is first split into a global train/test pair
        (:data:`TEST_FRACTION` held out); the training part is then partitioned across clients with the requested
        scheme, and each client shard is further split into local train /
        verification subsets (:data:`CLIENT_VAL_FRACTION`).  Only index arrays are composed along the way:
        every array the result holds is one gather from ``dataset``.
        """
        train_idx, test_idx = _split_indices(len(dataset), TEST_FRACTION, rng)
        partitions = partition_dataset(
            dataset.labels[train_idx],
            num_clients,
            rng,
            scheme=scheme,
            shards_per_client=shards_per_client,
            alpha=alpha,
        )
        clients: list[ClientDataset] = []
        for cid, idx in enumerate(partitions):
            kept, held = _split_indices(idx.shape[0], CLIENT_VAL_FRACTION, rng)
            train_rows, val_rows = train_idx[idx[kept]], train_idx[idx[held]]
            clients.append(
                ClientDataset(
                    client_id=cid,
                    images=dataset.images[train_rows],
                    labels=dataset.labels[train_rows],
                    val_images=dataset.images[val_rows],
                    val_labels=dataset.labels[val_rows],
                )
            )
        return cls(
            clients=clients,
            test_images=dataset.images[test_idx],
            test_labels=dataset.labels[test_idx],
            scheme=scheme,
        )


def inject_label_noise(
    dataset: FederatedDataset,
    rng: np.random.Generator,
    *,
    client_fraction: float = 0.25,
    noise_level: float = 0.6,
) -> list[int]:
    """Turn a fraction of clients into low-quality contributors via label noise.

    The paper's cost-effectiveness argument (Section 5.3) is that discarding
    low-contributing clients "reduces the noise from low-quality data".  This
    helper creates exactly that population: ``client_fraction`` of the clients
    have ``noise_level`` of their *training* labels replaced with uniformly
    random classes (their verification splits are left clean so accuracy
    measurements stay meaningful).

    Returns the IDs of the corrupted clients (sorted).
    """
    if not (0.0 <= client_fraction <= 1.0):
        raise ValueError(f"client_fraction must lie in [0, 1], got {client_fraction}")
    if not (0.0 <= noise_level <= 1.0):
        raise ValueError(f"noise_level must lie in [0, 1], got {noise_level}")
    num_noisy = int(round(client_fraction * dataset.num_clients))
    if num_noisy == 0:
        return []
    noisy_ids = sorted(
        int(c) for c in rng.choice(dataset.num_clients, size=num_noisy, replace=False)
    )
    for cid in noisy_ids:
        shard = dataset.clients[cid]
        n = shard.labels.shape[0]
        k = int(round(noise_level * n))
        if k == 0:
            continue
        idx = rng.choice(n, size=k, replace=False)
        shard.labels[idx] = rng.integers(0, NUM_CLASSES, size=k)
    return noisy_ids


def build_federated_dataset(
    *,
    num_clients: int = 100,
    num_samples: int = 4000,
    scheme: str = "dirichlet",
    alpha: float = 0.5,
    shards_per_client: int = 2,
    seed: int = 0,
    noise_std: float = 0.4,
    low_quality_fraction: float = 0.0,
    low_quality_noise: float = 0.6,
    distinct_shards: int = 0,
) -> FederatedDataset:
    """Generate the synthetic-MNIST federated dataset used by all experiments.

    The default non-IID scheme is a Dirichlet label split with ``alpha = 0.5``
    (the paper only says data follows "non-IID dynamics"); the pathological
    2-shard split remains available via ``scheme="shard"``.  Setting
    ``low_quality_fraction > 0`` corrupts that fraction of clients with label
    noise, producing the low-quality contributors the discard strategy of
    Section 5.3 is designed to filter out.

    ``distinct_shards`` caps the number of *distinct* client shards: when
    ``0 < distinct_shards < num_clients`` only that many archetype shards are
    synthesised (with any label noise applied to the archetypes) and the
    population is filled by assigning them cyclically as array *views* — the
    only way a 100k–1M-client population fits in memory.  ``0`` (the default)
    keeps one distinct shard per client.
    """
    if not (0 <= int(distinct_shards) <= int(num_clients)):
        raise ValueError(
            f"distinct_shards must lie in [0, num_clients={num_clients}], "
            f"got {distinct_shards}"
        )
    if not (0.0 <= low_quality_fraction <= 1.0):
        raise ValueError(f"low_quality_fraction must lie in [0, 1], got {low_quality_fraction}")
    shard_count = int(distinct_shards) or int(num_clients)
    dataset = load_synthetic_mnist(num_samples, seed=seed, noise_std=noise_std)
    fed = FederatedDataset.from_dataset(
        dataset,
        shard_count,
        new_rng(seed, "partition", scheme, shard_count),
        scheme=scheme,
        alpha=alpha,
        shards_per_client=shards_per_client,
    )
    if low_quality_fraction > 0.0:
        # Noise goes onto the archetypes, *before* replication, so every
        # replica of a low-quality shard is identically corrupted.
        inject_label_noise(
            fed,
            new_rng(seed, "label-noise", scheme, shard_count),
            client_fraction=low_quality_fraction,
            noise_level=low_quality_noise,
        )
    if shard_count < int(num_clients):
        fed = _replicate_shards(fed, int(num_clients))
    return fed


def _replicate_shards(fed: FederatedDataset, num_clients: int) -> FederatedDataset:
    """Grow ``fed`` to ``num_clients`` clients by cyclic shard sharing.

    Replica clients reference the archetype's arrays directly (no copies), so
    the dataset's memory footprint stays that of the archetypes.
    """
    archetypes = fed.clients
    clients = [
        replace(archetypes[cid % len(archetypes)], client_id=cid) for cid in range(num_clients)
    ]
    return replace(fed, clients=clients)
