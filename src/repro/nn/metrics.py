"""Classification metrics.

The paper reports "average accuracy" across clients per communication round
(Section 5.1); these helpers compute the per-evaluation accuracy that feeds
into that average (the averaging itself lives in
:class:`repro.fl.history.RoundRecord`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Fraction of rows whose arg-max prediction matches the integer label.

    ``logits`` is ``(..., batch, classes)`` and ``labels`` ``(..., batch)``:
    one batch gives a float, a stack one accuracy per leading index (the same
    last-axis reductions, so the same bytes as each slice scored alone).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64, copy=False)
    if logits.ndim < 2:
        raise ValueError(f"expected logits of shape (..., batch, classes), got {logits.shape}")
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"expected labels of shape {logits.shape[:-1]}, got {labels.shape}")
    if labels.shape[-1] == 0:
        means = np.zeros(labels.shape[:-1])
    else:
        means = np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
    return float(means) if means.ndim == 0 else means
