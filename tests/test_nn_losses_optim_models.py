"""Tests for the loss, the optimizer, models, metrics, initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.initializers import he_init, xavier_init, zeros_init
from repro.nn.layers import Linear
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.models import MODELS, LogisticRegressionModel, MLPClassifier, build_model
from repro.nn.module import Sequential
from repro.nn.optim import SGD
from repro.nn.parameters import bind_parameters, get_flat_parameters, pack_parameters
from repro.utils.rng import new_rng


@pytest.fixture()
def rng():
    return new_rng(0, "loss-tests")


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-4

    def test_uniform_prediction_loss_is_log_classes(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.zeros((4, 10))
        assert loss.forward(logits, np.zeros(4, dtype=int)) == pytest.approx(np.log(10))

    def test_backward_shape_and_scale(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.zeros((4, 3))
        loss.forward(logits, np.array([0, 1, 2, 0]))
        grad = loss.backward()
        assert grad.shape == (4, 3)
        # Gradient rows sum to zero for softmax CE.
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropyLoss().backward()

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0]))

    def test_loss_decreases_under_gradient_descent(self, rng):
        model = pack_parameters(Sequential(Linear(5, 3, rng)))
        loss_fn = SoftmaxCrossEntropyLoss()
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        opt = SGD(model, lr=0.5)
        first = loss_fn.forward(model.forward(x), y)
        for _ in range(30):
            loss_fn.forward(model.forward(x), y)
            model.backward(loss_fn.backward())
            opt.step()
        last = loss_fn.forward(model.forward(x), y)
        assert last < first


class TestSGD:
    def test_basic_step(self, rng):
        model = pack_parameters(Sequential(Linear(1, 2, rng)))
        values, grads = model.packed
        values[:] = [1.0, 2.0, 3.0, 4.0]
        grads[:] = [1.0, 1.0, 2.0, 0.0]
        SGD(model, lr=0.1).step()
        np.testing.assert_allclose(get_flat_parameters(model), [0.9, 1.9, 2.8, 4.0])

    @pytest.mark.parametrize("binding", ["unpacked", "forward-only"])
    def test_requires_a_packed_model(self, rng, binding):
        model = Sequential(Linear(2, 2, rng))
        if binding == "forward-only":  # values re-homed, no gradient buffer
            bind_parameters(model, get_flat_parameters(model))
        with pytest.raises(ValueError, match="packed"):
            SGD(model, lr=0.1)

    def test_step_consumes_the_gradients(self, rng):
        """The step is taken in the gradient buffer: it holds ``lr * gradient``
        afterwards, and the next backward writes over it."""
        model = pack_parameters(Sequential(Linear(1, 2, rng)))
        model.packed[1][:] = [1.0, -2.0, 4.0, 0.5]
        SGD(model, lr=0.25).step()
        np.testing.assert_array_equal(model.packed[1], [0.25, -0.5, 1.0, 0.125])


class TestInitializers:
    def test_zeros(self):
        assert np.all(zeros_init((3, 2)) == 0.0)

    def test_xavier_bounds(self, rng):
        w = xavier_init((50, 30), rng)
        limit = np.sqrt(6.0 / 80)
        assert np.all(np.abs(w) <= limit + 1e-12)

    def test_xavier_requires_2d(self, rng):
        with pytest.raises(ValueError):
            xavier_init((5,), rng)

    def test_he_scale(self, rng):
        w = he_init((2000, 10), rng)
        assert np.std(w) == pytest.approx(np.sqrt(2.0 / 2000), rel=0.2)


class TestModels:
    def test_logreg_shapes(self, rng):
        model = LogisticRegressionModel(784, 10, rng)
        out = model.forward(np.zeros((4, 784)))
        assert out.shape == (4, 10)

    def test_mlp_shapes(self, rng):
        model = MLPClassifier(784, 10, rng, hidden_sizes=(32, 16))
        out = model.forward(np.zeros((2, 784)))
        assert out.shape == (2, 10)
        assert get_flat_parameters(model).size == 784 * 32 + 32 + 32 * 16 + 16 + 16 * 10 + 10

    @pytest.mark.parametrize("name", MODELS)
    def test_backward_writes_every_gradient_and_returns_nothing(self, rng, name):
        model = pack_parameters(build_model(name, 6, 3, rng, hidden_sizes=(4,)))
        model.packed[1].fill(np.nan)
        model.forward(rng.normal(size=(5, 6)))
        assert model.backward(rng.normal(size=(5, 3))) is None
        assert np.isfinite(model.packed[1]).all()

    def test_build_model_factory(self, rng):
        assert isinstance(build_model("logreg", 10, 3, rng), LogisticRegressionModel)
        assert isinstance(build_model("mlp", 10, 3, rng), MLPClassifier)
        for name in ("transformer", "logistic", " MLP"):  # MODELS, spelled exactly
            with pytest.raises(ValueError):
                build_model(name, 10, 3, rng)

    def test_invalid_dimensions(self, rng):
        with pytest.raises(ValueError):
            LogisticRegressionModel(0, 10, rng)
        with pytest.raises(ValueError):
            MLPClassifier(10, 1, rng)
        with pytest.raises(ValueError):
            MLPClassifier(10, 3, rng, hidden_sizes=(0,))


class TestMetrics:
    def test_accuracy_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    @pytest.mark.parametrize("lead", ((2,), (1,), (2, 3)))
    def test_accuracy_per_leading_index(self, lead):
        """A stack of batches scores each batch alone: one value per leading index."""
        logits = np.broadcast_to(np.array([[1.0, 0.0], [1.0, 0.0]]), (*lead, 2, 2))
        labels = np.zeros((*lead, 2), dtype=int)
        labels[0, ..., 1] = 1  # the first slice gets one row wrong
        got = accuracy(logits, labels)
        assert got.shape == lead
        np.testing.assert_array_equal(got[0], 0.5)
        np.testing.assert_array_equal(got[1:], 1.0)
        np.testing.assert_array_equal(
            accuracy(np.zeros((*lead, 0, 3)), np.zeros((*lead, 0), dtype=int)), np.zeros(lead)
        )

    def test_accuracy_shape_checks(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))
