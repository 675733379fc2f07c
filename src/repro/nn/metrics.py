"""Classification metrics.

The paper reports "average accuracy" across clients per communication round
(Section 5.1); these helpers compute the per-evaluation accuracy that feeds
into that average (the averaging itself lives in
:class:`repro.fl.history.RoundRecord`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


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
