"""The SGD optimizer.

The paper uses plain mini-batch SGD with a constant learning rate η (default
0.01, swept over [0.01, 0.20] in Figure 5).

:func:`sgd_step` and :func:`add_proximal_term` are the one definition of the
SGD step and of the FedProx term over flat buffers: the serial path
applies them to a packed model's ``(P,)`` plane, the cohort engine to its
``(clients, P)`` matrix.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.validation import check_positive

__all__ = ["SGD", "sgd_step", "add_proximal_term"]


def sgd_step(params: np.ndarray, grads: np.ndarray, *, learning_rate: float) -> None:
    """In-place SGD step on flat parameters (one plane or a cohort matrix).

    ``grads`` is consumed: it is turned into the applied step in place rather
    than copied, so it holds ``learning_rate * gradient`` afterwards.
    """
    grads *= learning_rate
    params -= grads


def add_proximal_term(
    grads: np.ndarray,
    params: np.ndarray,
    global_ref: np.ndarray,
    proximal_mu: float,
) -> None:
    """Add the FedProx proximal gradient ``mu * (w - w_global)`` in place.

    ``global_ref`` is the ``(P,)`` global vector; ``grads`` / ``params`` are
    ``(P,)`` or ``(clients, P)``.
    """
    grads += proximal_mu * (params - global_ref)


class SGD:
    """Mini-batch stochastic gradient descent.

    Parameters
    ----------
    parameters:
        The parameters to update: ``model.parameters()``, or the model itself.
        Given a *packed* model (:func:`repro.nn.parameters.pack_parameters`),
        :meth:`step` is one :func:`sgd_step` over the two flat buffers — the
        same bytes in the values, with the gradients consumed (they hold
        ``lr * gradient`` afterwards) instead of preserved.
    lr:
        The learning rate η (constant, as in the paper).
    """

    def __init__(self, parameters: Iterable[Parameter] | Module, lr: float = 0.01) -> None:
        packed = None
        if isinstance(parameters, Module):
            packed, parameters = parameters.packed, parameters.parameters()
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("SGD requires at least one parameter to optimise")
        self.lr = check_positive("lr", lr)
        self._packed = packed

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        if self._packed is not None:
            values, grads = self._packed
            sgd_step(values, grads, learning_rate=self.lr)
            return
        for p in self.parameters:
            p.value -= self.lr * p.grad
