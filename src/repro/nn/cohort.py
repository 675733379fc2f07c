"""Batched-across-clients ("cohort") forward/backward kernels.

The serial training path of Procedure I runs one Python loop per client, and
every mini-batch step inside it is a handful of small ``(batch, features)``
matmuls.  This module provides the stacked counterparts: a whole cohort of
clients is processed at once with ``(clients, batch, features)`` activations
and a flat ``(clients, params)`` parameter matrix.

Every kernel is chosen so that its floating-point results are *bit-identical*
to the per-client code in :mod:`repro.nn.layers`, :mod:`repro.nn.losses` and
:mod:`repro.nn.optim`:

* ``np.matmul`` on a stacked operand performs the same dot-product reduction
  per client slice as the 2-D ``x @ w`` of :class:`~repro.nn.layers.Linear`;
* reductions (``max``, ``sum``, ``mean``, ``argmax``) are taken over the
  last, contiguous axis, which NumPy reduces with the same pairwise
  summation as the per-client axis-1 reductions;
* the activations are the serial layer classes themselves: elementwise, or
  (``Softmax``) reducing over the last axis, they take the extra leading
  ``clients`` axis unchanged, so there is no batched twin to keep in parity;
* everything else (bias add, the SGD / weight-decay / FedProx proximal
  update) is elementwise, where stacking cannot change the result.

:meth:`CohortModel.from_module` compiles a template
:class:`~repro.nn.module.Module` (the factory-built ``Flatten`` / ``Linear``
/ activation stacks) into a sequence of batched ops plus the flat parameter
layout used by :func:`repro.nn.parameters.get_flat_parameters`.  Models
containing layers without a batched counterpart (e.g. an active ``Dropout``,
whose per-client RNG draws cannot be stacked) raise
:class:`CohortUnsupportedError` so callers can fall back to the serial path.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.module import Module
from repro.nn.optim import add_proximal_term, sgd_step  # one definition; re-exported here

__all__ = [
    "CohortUnsupportedError",
    "CohortModel",
    "batched_softmax_cross_entropy",
    "batched_softmax_cross_entropy_grad",
    "batched_accuracy",
    "sgd_step",
    "add_proximal_term",
]


class CohortUnsupportedError(TypeError):
    """The model (or layer) has no bit-exact batched counterpart."""


# ---------------------------------------------------------------------------
# Batched layer ops.  Flatten and Linear mirror the forward/backward of their
# serial layer with the batch axes extended from (batch, ...) to
# (clients, batch, ...); the activations *are* the serial layers
# (``_CohortLayer``).  Parameters live in a shared flat (clients, P)
# matrix; each parametrised op *writes* its gradient into the matching flat
# slice (no accumulation: ``grads`` is scratch, fully rewritten per backward).
# ---------------------------------------------------------------------------


class _CohortOp:
    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, params: np.ndarray, grads: np.ndarray, grad_output: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class _CohortFlatten(_CohortOp):
    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, params, grads, grad_output):
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on cohort Flatten")
        return grad_output.reshape(self._input_shape)


class _CohortLinear(_CohortOp):
    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_slice: tuple[int, int],
        bias_slice: tuple[int, int] | None,
    ) -> None:
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight_slice = weight_slice
        self.bias_slice = bias_slice
        self._input_cache: np.ndarray | None = None

    def _weights(self, flat: np.ndarray) -> np.ndarray:
        """The (clients, in, out) weight *view* of a C-contiguous flat matrix."""
        lo, hi = self.weight_slice
        return flat[:, lo:hi].reshape(-1, self.in_features, self.out_features)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"cohort Linear expected input of shape (clients, batch, "
                f"{self.in_features}), got {x.shape}"
            )
        self._input_cache = x
        out = np.matmul(x, self._weights(params))
        if self.bias_slice is not None:
            lo, hi = self.bias_slice
            out += params[:, lo:hi][:, None, :]
        return out

    def backward(self, params, grads, grad_output, need_input_grad=True):
        if self._input_cache is None:
            raise RuntimeError("backward called before forward on cohort Linear")
        x = self._input_cache
        np.matmul(x.transpose(0, 2, 1), grad_output, out=self._weights(grads))
        if self.bias_slice is not None:
            lo, hi = self.bias_slice
            np.sum(grad_output, axis=1, out=grads[:, lo:hi])
        if not need_input_grad:
            return None
        return np.matmul(grad_output, self._weights(params).transpose(0, 2, 1))


class _CohortLayer(_CohortOp):
    """A parameter-free serial layer applied to the stacked activations as is.

    The activations of :mod:`repro.nn.layers` are elementwise or reduce over
    the last axis, so one instance serves ``(batch, features)`` and
    ``(clients, batch, features)`` inputs with the same expressions — the
    cohort path runs the serial math instead of a twin of it.
    """

    def __init__(self, layer: Module) -> None:
        self.layer = layer

    def forward(self, params, x):
        return self.layer.forward(x)

    def backward(self, params, grads, grad_output):
        return self.layer.backward(grad_output)


class CohortModel:
    """A template model compiled into batched ops over a flat parameter matrix.

    Instances are stateless apart from per-op forward caches, so one compiled
    model can be reused across rounds and cohort chunks (but not across
    threads).

    The parameter slices of ``ops`` must tile ``[0, num_parameters)`` exactly:
    :meth:`backward` writes each slice once and touches nothing else, so a
    gap would be a column of uninitialised memory and an overlap a column
    written twice.  The constructor checks it.
    """

    def __init__(self, ops: list[_CohortOp], num_parameters: int) -> None:
        self.ops = ops
        self.num_parameters = int(num_parameters)
        linears = [op for op in ops if isinstance(op, _CohortLinear)]
        slices = sorted(
            s for op in linears for s in (op.weight_slice, op.bias_slice) if s is not None
        )
        cursor, tiles = 0, True
        for lo, hi in slices:
            tiles = tiles and lo == cursor and hi > lo
            cursor = hi
        if not tiles or cursor != self.num_parameters:
            raise ValueError(
                f"cohort parameter slices {slices} must tile [0, {self.num_parameters}) "
                "without gap or overlap"
            )
        # The op whose input gradient nobody reads when the caller does not:
        # the first Linear, if only shape ops (Flatten) precede it.
        self._input_op: _CohortOp | None = None
        for op in ops:
            if isinstance(op, _CohortFlatten):
                continue
            if isinstance(op, _CohortLinear):
                self._input_op = op
            break

    @classmethod
    def from_module(cls, model: Module) -> "CohortModel":
        """Compile ``model`` (a Flatten/Linear/activation stack) to batched ops.

        The flat parameter layout follows ``model.parameters()`` order
        (per ``Linear``: weight then bias), i.e. the exact layout of
        :func:`~repro.nn.parameters.get_flat_parameters`.
        """
        layers = getattr(model, "layers", None)
        if layers is None:
            layers = [model]
        ops: list[_CohortOp] = []
        cursor = 0
        for layer in layers:
            if isinstance(layer, Linear):
                weight_slice = (cursor, cursor + layer.in_features * layer.out_features)
                cursor = weight_slice[1]
                bias_slice = None
                if layer.bias is not None:
                    bias_slice = (cursor, cursor + layer.out_features)
                    cursor = bias_slice[1]
                ops.append(
                    _CohortLinear(
                        layer.in_features, layer.out_features, weight_slice, bias_slice
                    )
                )
            elif isinstance(layer, Flatten):
                ops.append(_CohortFlatten())
            elif isinstance(layer, (ReLU, Tanh, Sigmoid, Softmax)):
                # Rank-agnostic serial layers, each a fresh instance: the forward
                # cache must not alias the template's.
                ops.append(_CohortLayer(type(layer)()))
            elif isinstance(layer, Dropout) and layer.rate == 0.0:
                continue  # the identity in this configuration: no op at all
            else:
                raise CohortUnsupportedError(
                    f"layer {type(layer).__name__} has no bit-exact batched "
                    "counterpart; use a serial/thread/process backend instead"
                )
        return cls(ops, cursor)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stacked forward pass: ``params`` is (clients, P), ``x`` (clients, batch, ...)."""
        if params.ndim != 2 or params.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected parameters of shape (clients, {self.num_parameters}), "
                f"got {params.shape}"
            )
        out = np.asarray(x, dtype=np.float64)
        for op in self.ops:
            out = op.forward(params, out)
        return out

    def backward(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        grad_output: np.ndarray,
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """Stacked backward pass; overwrites the flat ``grads`` matrix.

        ``grads`` is scratch: every column is written exactly once (it need
        not be zeroed, and nothing accumulates across calls).  Returns the
        gradient w.r.t. the input — unless ``need_input_grad=False`` says the
        caller will not read it and the first parametrised op follows only
        shape ops, in which case that op skips the product and the result is
        ``None``.  Parameter gradients are the same bytes either way.
        """
        if grads.shape != params.shape or not grads.flags.c_contiguous:
            raise ValueError(
                f"grads must be a C-contiguous matrix of shape {params.shape}, "
                f"got shape {grads.shape}"
            )
        g = np.asarray(grad_output, dtype=np.float64)
        skip = None if need_input_grad else self._input_op
        for op in reversed(self.ops):
            if op is skip:
                op.backward(params, grads, g, need_input_grad=False)
                return None
            g = op.backward(params, grads, g)
        return g


# ---------------------------------------------------------------------------
# Batched loss / metric kernels (the optimiser kernels are :mod:`repro.nn.optim`'s).
# ---------------------------------------------------------------------------


def batched_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """Fused softmax + cross-entropy over a cohort.

    ``logits`` is (clients, batch, classes), ``labels`` (clients, batch).
    Returns the per-client mean losses (Python floats, matching the serial
    ``float(-np.mean(...))`` exactly) and the softmax probabilities needed by
    :func:`batched_softmax_cross_entropy_grad`.
    """
    if logits.ndim != 3:
        raise ValueError(f"expected logits of shape (clients, batch, classes), got {logits.shape}")
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"expected labels of shape {logits.shape[:2]}, got {labels.shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[2]:
        raise ValueError(
            f"labels must lie in [0, {logits.shape[2]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=2, keepdims=True)
    picked = np.take_along_axis(probs, labels[:, :, None], axis=2)[:, :, 0]
    means = np.mean(np.log(np.clip(picked, 1e-12, None)), axis=1)
    return [float(-m) for m in means], probs


def batched_softmax_cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the per-client mean cross-entropy w.r.t. the logits."""
    grad = probs.copy()
    clients_idx = np.arange(grad.shape[0])[:, None]
    batch_idx = np.arange(grad.shape[1])[None, :]
    grad[clients_idx, batch_idx, labels] -= 1.0
    return grad / labels.shape[1]


def batched_accuracy(logits: np.ndarray, labels: np.ndarray) -> list[float]:
    """Per-client accuracy of stacked (clients, batch, classes) logits."""
    preds = np.argmax(logits, axis=2)
    means = np.mean(preds == labels, axis=1)
    return [float(m) for m in means]
