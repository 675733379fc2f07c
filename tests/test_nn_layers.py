"""Tests for repro.nn layers, modules, and numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.parameters import get_flat_parameters, set_flat_parameters
from repro.utils.rng import new_rng


@pytest.fixture()
def rng():
    return new_rng(0, "nn-tests")


class TestParameter:
    def test_grad_initialised_to_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0.0)

    def test_size_and_shape(self):
        p = Parameter(np.zeros((3, 5)))
        assert p.size == 15
        assert p.shape == (3, 5)


class TestModuleTraversal:
    def test_parameters_recursive(self, rng):
        first, second = Linear(4, 3, rng), Linear(3, 2, rng)
        model = Sequential(first, ReLU(), second)
        assert list(model.parameters()) == [first.weight, first.bias, second.weight, second.bias]

    def test_backward_stops_at_the_first_parametrised_layer(self, rng):
        """Nothing reads the gradient a layer ahead of the first ``Linear``
        would get, so the chain never calls its backward."""

        class Unreachable(Flatten):
            def backward(self, grad_output):
                raise AssertionError("backward ran ahead of the first Linear")

        model = Sequential(Unreachable(), Linear(6, 4, rng), ReLU(), Linear(4, 2, rng))
        model.forward(rng.normal(size=(3, 2, 3)))
        assert model.backward(rng.normal(size=(3, 2))) is None
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_register_wrong_types(self, rng):
        m = Module()
        with pytest.raises(TypeError):
            m.register_parameter("p", np.zeros(3))
        with pytest.raises(TypeError):
            m.register_module("c", "not a module")


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng)
        out = layer.forward(np.zeros((7, 5)))
        assert out.shape == (7, 3)

    def test_forward_wrong_dim_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(5, 3, rng).forward(np.zeros((7, 4)))
        with pytest.raises(ValueError):  # leading axes must be the weight's own
            Linear(5, 3, rng).forward(np.zeros((2, 7, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.zeros((1, 2)))

    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng)

    def test_invalid_init_name(self, rng):
        with pytest.raises(ValueError):
            Linear(2, 2, rng, init="bogus")

    def test_backward_writes_over_the_last_gradient(self, rng):
        layer = Linear(3, 2, rng)
        x = np.ones((4, 3))
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_array_equal(layer.weight.grad, first)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    def test_backward_before_forward_raises(self):
        for layer in (ReLU(), Flatten()):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 2)))


class TestFlatten:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == (2, 3, 4)


def _numerical_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        f_plus = f()
        x[idx] = old - eps
        f_minus = f()
        x[idx] = old
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestGradientCheck:
    """Finite-difference checks that backprop matches the analytic gradient."""

    def test_linear_softmax_ce_gradients(self, rng):
        model = Sequential(Linear(6, 4, rng), Linear(4, 3, rng))
        loss_fn = SoftmaxCrossEntropyLoss()
        x = new_rng(1, "x").normal(size=(5, 6))
        y = new_rng(2, "y").integers(0, 3, size=5)

        def loss_value():
            return loss_fn.forward(model.forward(x), y)

        loss_fn.forward(model.forward(x), y)
        model.backward(loss_fn.backward())

        for param in model.parameters():
            numeric = _numerical_gradient(loss_value, param.value)
            np.testing.assert_allclose(param.grad, numeric, atol=1e-5, rtol=1e-4)

    def test_relu_network_gradients(self, rng):
        model = Sequential(Linear(4, 5, rng, init="he"), ReLU(), Linear(5, 2, rng))
        loss_fn = SoftmaxCrossEntropyLoss()
        x = new_rng(3, "x").normal(size=(6, 4)) + 0.1
        y = new_rng(4, "y").integers(0, 2, size=6)

        def loss_value():
            return loss_fn.forward(model.forward(x), y)

        loss_fn.forward(model.forward(x), y)
        model.backward(loss_fn.backward())
        flat_analytic = np.concatenate([p.grad.ravel() for p in model.parameters()])
        flat_numeric = np.concatenate(
            [_numerical_gradient(loss_value, p.value).ravel() for p in model.parameters()]
        )
        np.testing.assert_allclose(flat_analytic, flat_numeric, atol=1e-5, rtol=1e-3)


class TestFlatParameters:
    def test_roundtrip(self, rng):
        model = Sequential(Linear(4, 3, rng), ReLU(), Linear(3, 2, rng))
        flat = get_flat_parameters(model)
        assert flat.shape == (4 * 3 + 3 + 3 * 2 + 2,)
        set_flat_parameters(model, flat * 2.0)
        np.testing.assert_allclose(get_flat_parameters(model), flat * 2.0)

    def test_wrong_length_raises(self, rng):
        model = Sequential(Linear(4, 3, rng))
        with pytest.raises(ValueError):
            set_flat_parameters(model, np.zeros(3))

    def test_set_does_not_rebind_arrays(self, rng):
        model = Sequential(Linear(2, 2, rng))
        refs = [p.value for p in model.parameters()]
        set_flat_parameters(model, np.zeros(2 * 2 + 2))
        assert all(p.value is r for p, r in zip(model.parameters(), refs))
