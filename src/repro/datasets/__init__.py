"""Dataset substrate: synthetic MNIST, federated partitioning, batch iteration.

The paper evaluates on MNIST partitioned across ``n`` clients, non-IID by
default.  No dataset download is possible in this environment, so
:mod:`repro.datasets.synthetic_mnist` generates a deterministic 10-class
28x28 image dataset whose difficulty and class structure play the same role
(see DESIGN.md, substitution table).  Partitioning (IID / shard non-IID /
Dirichlet non-IID) and the per-client dataset/batching machinery are identical
to what a real MNIST pipeline would use.
"""
