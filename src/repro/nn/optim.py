"""The SGD optimizer.

The paper uses plain mini-batch SGD with a constant learning rate η (default
0.01, swept over [0.01, 0.20] in Figure 5).

:func:`sgd_step` and :func:`add_proximal_term` are the one definition of the
SGD step and of the FedProx term over flat buffers: the serial path
applies them to a packed model's ``(P,)`` plane, the cohort engine to its
``(clients, P)`` matrix.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

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
    """Mini-batch stochastic gradient descent on one packed model.

    Parameters
    ----------
    model:
        A model packed by :func:`repro.nn.parameters.pack_parameters`:
        :meth:`step` is one :func:`sgd_step` over its two flat buffers, so the
        gradients are consumed (they hold ``lr * gradient`` afterwards).
    lr:
        The learning rate η (constant, as in the paper; the scenario field
        that sets it checks it).
    """

    def __init__(self, model: Module, lr: float) -> None:
        if model.packed is None or model.packed[1] is None:
            raise ValueError("SGD steps a packed model (see pack_parameters)")
        self._values, self._grads = model.packed
        self.lr = lr

    def step(self) -> None:
        """Apply one update using the gradients the last backward wrote."""
        sgd_step(self._values, self._grads, learning_rate=self.lr)
