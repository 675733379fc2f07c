"""Loss functions.

Both losses return the scalar mean loss over the batch from ``forward`` and
the gradient of that mean with respect to the model output from ``backward``,
so the SGD step in Procedure I of Algorithm 1 sees gradients already scaled by
``1/batch_size``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropyLoss", "MSELoss"]


class Loss:
    """Base class for losses used by the per-client training loop."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Return the mean loss over the batch."""
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Return d(mean loss)/d(predictions) for the last ``forward`` call."""
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class SoftmaxCrossEntropyLoss(Loss):
    """Fused softmax + cross-entropy over integer class labels.

    ``predictions`` are raw logits of shape ``(batch, classes)``; ``targets``
    are integer labels of shape ``(batch,)``.  Fusing the two operations keeps
    the backward pass numerically stable (``softmax - one_hot``) and avoids the
    explicit Jacobian product of a standalone softmax layer.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._rows = np.arange(0)  # row index of the widest batch seen, sliced per batch

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        logits = np.asarray(predictions, dtype=np.float64)
        labels = np.asarray(targets)
        if logits.ndim != 2:
            raise ValueError(f"expected logits of shape (batch, classes), got {logits.shape}")
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"expected integer labels of shape ({logits.shape[0]},), got {labels.shape}"
            )
        labels = labels.astype(np.int64, copy=False)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
            raise ValueError(
                f"labels must lie in [0, {logits.shape[1]}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        self._probs = probs
        self._targets = labels
        if self._rows.shape[0] < labels.shape[0]:
            self._rows = np.arange(labels.shape[0])
        picked = probs[self._rows[: labels.shape[0]], labels]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward on SoftmaxCrossEntropyLoss")
        batch = self._targets.shape[0]
        grad = self._probs.copy()
        grad[self._rows[:batch], self._targets] -= 1.0
        return grad / batch


class MSELoss(Loss):
    """Mean-squared-error loss over arbitrary-shaped predictions/targets."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None
        self._count: int = 0

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        preds = np.asarray(predictions, dtype=np.float64)
        targs = np.asarray(targets, dtype=np.float64)
        if preds.shape != targs.shape:
            raise ValueError(f"shape mismatch: predictions {preds.shape} vs targets {targs.shape}")
        self._diff = preds - targs
        self._count = int(preds.size)
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward on MSELoss")
        return 2.0 * self._diff / self._count
