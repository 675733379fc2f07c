"""Classification metrics.

The paper reports "average accuracy" across clients per communication round
(Section 5.1); these helpers compute the per-evaluation accuracy that feeds
into that average (the averaging itself lives in
:class:`repro.fl.history.RoundRecord`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "top_k_accuracy", "confusion_matrix"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max prediction matches the integer label."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected logits of shape (batch, classes), got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"expected labels of shape ({logits.shape[0]},), got {labels.shape}"
        )
    if logits.shape[0] == 0:
        return 0.0
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 3) -> float:
    """Fraction of rows whose label appears among the ``k`` largest logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected logits of shape (batch, classes), got {logits.shape}")
    if not (1 <= k <= logits.shape[1]):
        raise ValueError(f"k must lie in [1, {logits.shape[1]}], got {k}")
    if logits.shape[0] == 0:
        return 0.0
    topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(np.mean(hits))


def confusion_matrix(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """``num_classes x num_classes`` matrix with true labels on rows, predictions on columns."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    preds = np.argmax(logits, axis=1) if logits.size else np.zeros(0, dtype=np.int64)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, preds), 1)
    return matrix
