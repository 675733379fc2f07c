"""The training loss.

The loss returns the scalar mean loss over the batch from ``forward`` and
the gradient of that mean with respect to the model output from ``backward``,
so the SGD step in Procedure I of Algorithm 1 sees gradients already scaled by
``1/batch_size``.  :class:`SoftmaxCrossEntropyLoss` also takes leading axes
ahead of ``(batch, classes)`` and then returns one mean per leading index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SoftmaxCrossEntropyLoss"]


class SoftmaxCrossEntropyLoss:
    """Fused softmax + cross-entropy over integer class labels.

    ``predictions`` are raw logits of shape ``(..., batch, classes)``;
    ``targets`` are integer labels of shape ``(..., batch)``.  Every reduction
    is over the last axis, so one ``(batch, classes)`` batch yields a float
    and a stack of batches (the cohort engine's ``(clients, batch, classes)``)
    one mean loss per leading index — each the same bytes as that slice run
    alone.  Fusing the two operations keeps the backward pass numerically
    stable (``softmax - one_hot``) and avoids the explicit Jacobian product of
    a standalone softmax layer.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._grids: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def _picks(self, labels: np.ndarray) -> tuple[np.ndarray, ...]:
        """The index selecting each row's labelled class (open grid cached per shape)."""
        grid = self._grids.get(labels.shape)
        if grid is None:
            grid = self._grids[labels.shape] = np.indices(labels.shape, sparse=True)
        return (*grid, labels)

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float | np.ndarray:
        logits = np.asarray(predictions, dtype=np.float64)
        labels = np.asarray(targets)
        if logits.ndim < 2:
            raise ValueError(
                f"expected logits of shape (..., batch, classes), got {logits.shape}"
            )
        if labels.shape != logits.shape[:-1]:
            raise ValueError(
                f"expected integer labels of shape {logits.shape[:-1]}, got {labels.shape}"
            )
        labels = labels.astype(np.int64, copy=False)
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
            raise ValueError(
                f"labels must lie in [0, {logits.shape[-1]}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        # One (..., batch, classes) buffer: shifted, exponentiated and
        # normalised in place.
        probs = logits - logits.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        self._probs = probs
        self._targets = labels
        picked = probs[self._picks(labels)]
        np.maximum(picked, 1e-12, out=picked)
        losses = -(np.add.reduce(np.log(picked, out=picked), axis=-1) / labels.shape[-1])
        return float(losses) if losses.ndim == 0 else losses

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward on SoftmaxCrossEntropyLoss")
        grad = self._probs.copy()
        grad[self._picks(self._targets)] -= 1.0
        return grad / self._targets.shape[-1]
