"""Mini-batch iteration.

Algorithm 1 (line 8) splits the client's shard into batches of size ``B``;
these helpers implement that split with optional shuffling, dropping nothing
(the final short batch is kept, matching the ``D_i / B`` accounting of
Section 4.1).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["minibatches"]


def minibatches(
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(image_batch, label_batch)`` pairs covering the data once.

    Parameters
    ----------
    batch_size:
        Positive batch size ``B``; the last batch may be smaller.
    rng:
        If given, the sample order is shuffled before batching.
    """
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images and labels must have the same number of rows")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n = images.shape[0]
    order = rng.permutation(n) if rng is not None else np.arange(n)
    # One gather per epoch, then contiguous slices of it: the same rows in the
    # same C layout as a fancy index per batch (and still copies, never views
    # of the caller's arrays).
    images, labels = images[order], labels[order]
    for start in range(0, n, batch_size):
        yield images[start : start + batch_size], labels[start : start + batch_size]
