"""Optimizers and learning-rate schedules.

The paper uses plain mini-batch SGD with learning rate η (default 0.01,
swept over [0.01, 0.20] in Figure 5).  The convergence proof (Theorem 3.1)
relies on a decaying step size η_r = 2 / (μ(γ + r)); the
:class:`InverseTimeDecayLR` schedule implements exactly that family so the
theoretical benchmark can exercise the same schedule.

:func:`sgd_step` and :func:`add_proximal_term` are the one definition of the
momentum-free step and of the FedProx term over flat buffers: the serial path
applies them to a packed model's ``(P,)`` plane, the cohort engine to its
``(clients, P)`` matrix.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "LRSchedule",
    "ConstantLR",
    "InverseTimeDecayLR",
    "SGD",
    "sgd_step",
    "add_proximal_term",
]


def sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    *,
    learning_rate: float,
    weight_decay: float = 0.0,
) -> None:
    """In-place momentum-free SGD step on flat parameters (one plane or a cohort matrix).

    ``grads`` is consumed: it is turned into the applied step in place rather
    than copied, so it holds ``learning_rate * gradient`` afterwards.
    """
    if weight_decay > 0.0:
        grads += weight_decay * params
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


class LRSchedule:
    """Base class mapping a step index to a learning rate."""

    def learning_rate(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        return self.learning_rate(step)


class ConstantLR(LRSchedule):
    """Constant learning rate (the paper's default setting)."""

    def __init__(self, lr: float) -> None:
        self.lr = check_positive("lr", lr)

    def learning_rate(self, step: int) -> float:
        return self.lr


class InverseTimeDecayLR(LRSchedule):
    """η_r = beta / (gamma + r) — the decaying schedule of Theorem 3.1.

    With ``beta = 2/μ`` and ``gamma = max(8L/μ, E)`` this is exactly the
    schedule assumed by the convergence proof of the paper (Appendix A).
    """

    def __init__(self, beta: float, gamma: float) -> None:
        self.beta = check_positive("beta", beta)
        self.gamma = check_non_negative("gamma", gamma)

    def learning_rate(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        return self.beta / (self.gamma + step)


class SGD:
    """Mini-batch stochastic gradient descent with optional momentum and weight decay.

    Parameters
    ----------
    parameters:
        The parameters to update: ``model.parameters()``, or the model itself.
        Given a *packed* model (:func:`repro.nn.parameters.pack_parameters`)
        and no momentum, :meth:`step` is one :func:`sgd_step` over the two flat
        buffers — the same bytes in the values, with the gradients consumed
        (they hold ``lr * gradient`` afterwards) instead of preserved.
    lr:
        Either a float (constant rate) or an :class:`LRSchedule`.
    momentum:
        Classical momentum coefficient in ``[0, 1)``; 0 disables momentum
        (the paper's configuration).
    weight_decay:
        L2 penalty coefficient added to the gradient before the update.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter] | Module,
        lr: float | LRSchedule = 0.01,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        packed = None
        if isinstance(parameters, Module):
            packed, parameters = parameters.packed, parameters.parameters()
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("SGD requires at least one parameter to optimise")
        self.schedule: LRSchedule = lr if isinstance(lr, LRSchedule) else ConstantLR(float(lr))
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = check_non_negative("weight_decay", weight_decay)
        self.step_count = 0
        self._velocity: list[np.ndarray] | None = None
        if self.momentum > 0.0:
            self._velocity = [np.zeros_like(p.value) for p in self.parameters]
        # The flat step has no velocity term: momentum keeps the per-parameter loop.
        self._packed = packed if self._velocity is None else None

    @property
    def current_lr(self) -> float:
        """The learning rate that the *next* ``step`` call will use."""
        return self.schedule.learning_rate(self.step_count)

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> float:
        """Apply one update using the accumulated gradients; returns the lr used."""
        lr = self.schedule.learning_rate(self.step_count)
        self.step_count += 1
        if self._packed is not None:
            values, grads = self._packed
            sgd_step(values, grads, learning_rate=lr, weight_decay=self.weight_decay)
            return lr
        for i, p in enumerate(self.parameters):
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.value
            if self._velocity is not None:
                self._velocity[i] = self.momentum * self._velocity[i] - lr * grad
                p.value += self._velocity[i]
            else:
                p.value -= lr * grad
        return lr
