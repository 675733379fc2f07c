"""Finite-difference gradient checks for every layer, loss, and the cohort container.

The analytic backward passes are the foundation both execution paths share:
the serial per-client loop uses the :mod:`repro.nn.layers` modules directly,
and the vectorized cohort engine runs the same objects on stacked
``(clients, batch, features)`` operands (:mod:`repro.nn.cohort`).  A wrong
gradient would not crash anything — training would just quietly converge to
the wrong place — so every backward is checked against a central-difference
numerical gradient here, in both the single-sample and stacked shapes.

Coverage is enforced structurally: the parametrised case lists are asserted
against the ``__all__`` of :mod:`repro.nn.layers` and
:mod:`repro.nn.losses`, so adding a layer or loss without a gradcheck fails
the suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import cohort as nn_cohort
from repro.nn import layers as nn_layers
from repro.nn import losses as nn_losses
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import add_proximal_term

EPS = 1e-6
RTOL = 1e-5
ATOL = 1e-7

# Batch axes: the single-sample shape and a stacked batch.
BATCH_SIZES = (1, 4)


def numerical_grad(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` w.r.t. every entry of ``x``.

    ``x`` is perturbed in place and restored, so ``f`` may close over it.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + EPS
        plus = f()
        x[idx] = orig - EPS
        minus = f()
        x[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * EPS)
    return grad


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _make_input(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Inputs bounded away from zero so kinked activations (ReLU) stay smooth
    within the finite-difference step."""
    magnitude = rng.uniform(0.2, 1.5, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


def _layer_case(name: str):
    """Build ``(layer, feature_shape)`` for one gradcheck case.

    ``feature_shape`` excludes the batch axis.
    """
    rng = np.random.default_rng(42)
    if name == "Linear":
        return Linear(4, 3, rng), (4,)
    if name == "Linear-he":
        return Linear(4, 3, rng, init="he"), (4,)
    if name == "ReLU":
        return ReLU(), (4,)
    if name == "Flatten":
        return Flatten(), (2, 3)
    raise AssertionError(f"no gradcheck case for layer {name!r}")


LAYER_CASES = (
    "Linear",
    "Linear-he",
    "ReLU",
    "Flatten",
)


def test_every_layer_has_a_gradcheck():
    covered = {case.split("-")[0] for case in LAYER_CASES}
    assert covered == set(nn_layers.__all__)


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("case", LAYER_CASES)
def test_layer_gradients(case, batch):
    layer, feature_shape = _layer_case(case)
    rng = np.random.default_rng(1)
    x = _make_input((batch, *feature_shape), rng)
    out_shape = layer.forward(x).shape
    # Random projection makes the output a scalar objective with a dense,
    # non-degenerate upstream gradient.
    projection = rng.standard_normal(out_shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x) * projection))

    # Analytic pass: input gradient from backward, parameter gradients from
    # the ``.grad`` buffers it writes (poisoned first: nothing may be left).
    for param in layer.parameters():
        param.grad.fill(np.nan)
    layer.forward(x)
    input_grad = layer.backward(projection)

    np.testing.assert_allclose(
        input_grad, numerical_grad(objective, x), rtol=RTOL, atol=ATOL,
        err_msg=f"{case}: d(objective)/d(input) mismatch at batch={batch}",
    )
    for param in layer.parameters():
        np.testing.assert_allclose(
            param.grad, numerical_grad(objective, param.value), rtol=RTOL, atol=ATOL,
            err_msg=f"{case}: d(objective)/d({param.name}) mismatch at batch={batch}",
        )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_every_loss_has_a_gradcheck():
    assert nn_losses.__all__ == ["SoftmaxCrossEntropyLoss"]


@pytest.mark.cohort
@pytest.mark.parametrize("lead", ((), (1,), (3,), (2, 2)))
@pytest.mark.parametrize("batch", (1, 5))
def test_softmax_cross_entropy_gradient(batch, lead):
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((*lead, batch, 4))
    labels = rng.integers(0, 4, size=(*lead, batch))
    loss = SoftmaxCrossEntropyLoss()

    assert np.shape(loss.forward(logits, labels)) == lead
    analytic = loss.backward()

    # Per-index losses are independent, so the gradient of their *sum* is
    # exactly the stacked per-index gradient.
    def objective() -> float:
        return float(np.sum(SoftmaxCrossEntropyLoss().forward(logits, labels)))

    np.testing.assert_allclose(
        analytic, numerical_grad(objective, logits), rtol=RTOL, atol=ATOL
    )


# ---------------------------------------------------------------------------
# The cohort container: the same layers walked over a (clients, P) matrix
# ---------------------------------------------------------------------------

class _Stack(Module):
    """A bare layer stack exposing ``.layers`` for ``CohortModel.from_module``."""

    def __init__(self, layers) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer{i}", layer)


def _cohort_setup(clients: int):
    """A stack covering every layer the cohort takes, with per-client flat parameters."""
    rng = np.random.default_rng(4)
    template = _Stack(
        [
            Flatten(),
            Linear(4, 3, rng),
            Linear(3, 3, rng, init="he"),
            ReLU(),
            Linear(3, 2, rng),
        ]
    )
    model = nn_cohort.CohortModel.from_module(template)
    params = rng.standard_normal((clients, model.num_parameters)) * 0.5
    x = _make_input((clients, 2, 2, 2), rng)  # Flatten folds (2, 2) -> 4
    return model, params, x


@pytest.mark.cohort
@pytest.mark.parametrize("clients", (1, 3))
def test_cohort_model_gradients(clients):
    model, params, x = _cohort_setup(clients)
    rng = np.random.default_rng(5)
    projection = rng.standard_normal(model.forward(params, x).shape)

    def objective() -> float:
        return float(np.sum(model.forward(params, x) * projection))

    grads = np.full_like(params, np.nan)  # scratch: backward writes every column
    model.forward(params, x)
    model.backward(params, grads, projection)

    np.testing.assert_allclose(
        grads, numerical_grad(objective, params), rtol=RTOL, atol=ATOL,
        err_msg=f"cohort stack: parameter gradient mismatch at clients={clients}",
    )


@pytest.mark.cohort
def test_proximal_term_gradient():
    """`add_proximal_term` is d/dw of (mu/2)||w - w_global||^2, stacked."""
    rng = np.random.default_rng(8)
    params = rng.standard_normal((3, 5))
    global_ref = rng.standard_normal(5)
    mu = 0.1

    def objective() -> float:
        return float(0.5 * mu * np.sum((params - global_ref[None, :]) ** 2))

    grads = np.zeros_like(params)
    add_proximal_term(grads, params, global_ref, mu)
    np.testing.assert_allclose(
        grads, numerical_grad(objective, params), rtol=RTOL, atol=ATOL
    )
