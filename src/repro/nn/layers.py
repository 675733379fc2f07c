"""Layers: Linear, ReLU and Flatten — all the shipped models build.

Every layer implements the ``forward``/``backward`` contract of
:class:`repro.nn.module.Module`.  Caches required for the backward pass are
stored on the layer between the two calls (single-threaded per client, which
matches the sequential per-client training loop of Algorithm 1).

Leading axes: ``Linear`` and ``ReLU`` work on ``(..., batch, features)`` —
the serial loop passes ``(batch, features)``, the cohort engine
``(clients, batch, features)`` to the *same* objects — and each leading index
gets the bytes of its slice run alone (:mod:`repro.nn.cohort` says why).
``Flatten`` is batch-first only.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_init, xavier_init, zeros_init
from repro.nn.module import Module, Parameter

__all__ = ["Linear", "ReLU", "Flatten"]


class Linear(Module):
    """Fully-connected layer ``y = x @ W + b``.

    The input carries the leading axes of the weight it is bound to
    (:func:`repro.nn.parameters.bind_parameters`): ``(batch, in)`` against the
    ``(in, out)`` it is built with, ``(clients, batch, in)`` against a stacked
    ``(clients, in, out)``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Generator used for weight initialisation.
    init:
        ``"xavier"`` (default, good before tanh/softmax) or ``"he"`` (before
        ReLU).

    The bias ``b`` starts at zero.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        init: str = "xavier",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"in_features and out_features must be positive, got "
                f"({in_features}, {out_features})"
            )
        if init == "xavier":
            w = xavier_init((in_features, out_features), rng)
        elif init == "he":
            w = he_init((in_features, out_features), rng)
        else:
            raise ValueError(f"unknown init scheme {init!r}; expected 'xavier' or 'he'")
        self.in_features = int(in_features)
        self.weight = self.register_parameter("weight", Parameter(w, "weight"))
        self.bias = self.register_parameter("bias", Parameter(zeros_init((out_features,)), "bias"))
        self._input_cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        weight = self.weight.value
        if x.ndim != weight.ndim or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (..., batch, {self.in_features}) and "
                f"of the weight's rank ({weight.ndim}), got {x.shape}"
            )
        self._input_cache = x
        # Out of place on purpose: ``out += b`` is the same bytes, but where the
        # allocator then puts things read as +10 % peak RSS on one workload.
        return np.matmul(x, weight) + self.bias.value[..., None, :]

    def clear_caches(self) -> None:
        self._input_cache = None

    def backward(
        self, grad_output: np.ndarray, *, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Write the parameter gradients into their buffers; return ``dL/dx``.

        ``need_input_grad=False`` (the container will not read the result)
        skips the ``grad_output @ W.T`` product and returns ``None``.
        """
        if self._input_cache is None:
            raise RuntimeError("backward called before forward on Linear layer")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        np.matmul(self._input_cache.swapaxes(-1, -2), grad_output, out=self.weight.grad)
        np.sum(grad_output, axis=-2, out=self.bias.grad)
        if not need_input_grad:
            return None
        return np.matmul(grad_output, self.weight.value.swapaxes(-1, -2))


class ReLU(Module):
    """Rectified linear unit ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward on ReLU layer")
        return np.where(self._mask, np.asarray(grad_output, dtype=np.float64), 0.0)


class Flatten(Module):
    """Flatten all non-batch dimensions into one."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on Flatten layer")
        return np.asarray(grad_output, dtype=np.float64).reshape(self._input_shape)
