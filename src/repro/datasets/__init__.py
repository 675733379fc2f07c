"""Dataset substrate: synthetic MNIST, federated partitioning, batch iteration.

The paper evaluates on MNIST partitioned across ``n`` clients, non-IID by
default.  No dataset download is possible in this environment, so
:mod:`repro.datasets.synthetic_mnist` generates a deterministic 10-class
28x28 image dataset whose difficulty and class structure play the same role
(see DESIGN.md, substitution table).  Partitioning (IID / shard non-IID /
Dirichlet non-IID) and the per-client dataset/batching machinery are identical
to what a real MNIST pipeline would use.
"""

from repro.datasets.federated import (
    ClientDataset,
    FederatedDataset,
    build_federated_dataset,
    inject_label_noise,
)
from repro.datasets.loaders import BatchIterator
from repro.datasets.partition import partition_dataset
from repro.datasets.synthetic_mnist import SyntheticMNIST, load_synthetic_mnist

__all__ = [
    "ClientDataset",
    "FederatedDataset",
    "build_federated_dataset",
    "inject_label_noise",
    "BatchIterator",
    "partition_dataset",
    "SyntheticMNIST",
    "load_synthetic_mnist",
]
