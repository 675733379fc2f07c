"""Executable properties of the write-once cohort kernels.

The batched training step has three mechanisms that each trade a safety net
for speed, so each gets a guard that fails loudly instead of training on
garbage:

* **write, don't accumulate** — ``CohortModel.backward`` overwrites the flat
  ``grads`` scratch instead of adding into zeros, so an unwritten column would
  be uninitialised memory.  The scratch is poisoned with ``NaN`` and the
  result held against the accumulate-into-zeros reference kept below;
* **the unread input gradient** — ``need_input_grad=False`` must change
  nothing but the return value, on the batched and on the serial stack;
* **each distinct shard stacked once** — a replicated population and its
  private-copy twin must yield byte-identical blocks, and the work counts
  (``np.matmul`` calls per step, arrays handed to ``np.stack``) must stay at
  the floor.

And one structural promise: the cohort path has no activation math of its own
— ``from_module`` wraps instances of the *serial* layer classes, so the two
training paths cannot disagree on an activation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import ClientDataset, build_federated_dataset
from repro.fl.client import FLClient, LocalTrainingConfig
from repro.fl.cohort import CohortTrainer
from repro.nn import cohort as nn_cohort
from repro.nn.cohort import CohortModel, CohortUnsupportedError, _CohortFlatten, _CohortLinear
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.models import ModelFactory, build_model
from repro.nn.module import Sequential
from repro.nn.parameters import get_flat_parameters
from repro.utils.rng import new_rng

pytestmark = pytest.mark.cohort


# ---------------------------------------------------------------------------
# References: the accumulate-into-zeros backward and the allocating SGD step
# these kernels replaced, kept as the oracle.
# ---------------------------------------------------------------------------

def reference_backward(model: CohortModel, params: np.ndarray, grad_output: np.ndarray):
    grads = np.zeros_like(params)
    g = np.asarray(grad_output, dtype=np.float64)
    for op in reversed(model.ops):
        if isinstance(op, _CohortLinear):
            x = op._input_cache
            lo, hi = op.weight_slice
            grad_w = np.matmul(x.transpose(0, 2, 1), g)
            grads[:, lo:hi] += grad_w.reshape(grad_w.shape[0], -1)
            if op.bias_slice is not None:
                b_lo, b_hi = op.bias_slice
                grads[:, b_lo:b_hi] += g.sum(axis=1)
            g = np.matmul(g, op._weights(params).transpose(0, 2, 1))
        else:
            g = op.backward(params, grads, g)
    return g, grads


def reference_sgd_step(params, grads, *, learning_rate, weight_decay=0.0):
    if weight_decay > 0.0:
        grads = grads + weight_decay * params
    params -= learning_rate * grads


ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid, "softmax": Softmax}
STACKS = ("logreg", "mlp", "bias-free", *ACTIVATIONS)


def _stack(name: str) -> Sequential:
    """A serial stack over 6 flattened features and 4 classes."""
    rng = np.random.default_rng(11)
    if name in ("logreg", "mlp"):
        return build_model(name, 6, 4, rng, hidden_sizes=(5,))
    if name == "bias-free":
        return Sequential(Flatten(), Linear(6, 5, rng, bias=False), Linear(5, 4, rng))
    return Sequential(Flatten(), Linear(6, 5, rng), ACTIVATIONS[name](), Linear(5, 4, rng))


def _cohort(name: str, clients: int):
    """A compiled stack with per-client parameters, an input, an upstream gradient."""
    rng = np.random.default_rng(12)
    model = CohortModel.from_module(_stack(name))
    params = rng.standard_normal((clients, model.num_parameters)) * 0.5
    x = rng.standard_normal((clients, 3, 2, 3))  # Flatten folds (2, 3) -> 6
    upstream = rng.standard_normal((clients, 3, 4))
    return model, params, x, upstream


# ---------------------------------------------------------------------------
# (a) every column written
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize("name", STACKS)
def test_backward_overwrites_every_column(name, clients):
    model, params, x, upstream = _cohort(name, clients)
    model.forward(params, x)
    want_input, want = reference_backward(model, params, upstream)

    grads = np.full_like(params, np.nan)
    got_input = model.backward(params, grads, upstream)

    np.testing.assert_array_equal(grads, want)
    np.testing.assert_array_equal(got_input, want_input)


@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize(
    "proximal_mu, weight_decay", [(0.0, 0.0), (0.1, 0.0), (0.0, 0.01), (0.05, 0.02)]
)
def test_training_steps_match_the_accumulating_reference(clients, proximal_mu, weight_decay):
    """Backward, FedProx term, SGD — two steps on one never-zeroed scratch."""
    model, params, x, upstream = _cohort("mlp", clients)
    global_ref = params[0] * 0.9
    want_params = params.copy()
    grads = np.full_like(params, np.nan)
    for _ in range(2):
        model.forward(want_params, x)
        _, want = reference_backward(model, want_params, upstream)
        if proximal_mu:
            nn_cohort.add_proximal_term(want, want_params, global_ref, proximal_mu)
        reference_sgd_step(want_params, want, learning_rate=0.05, weight_decay=weight_decay)

        model.forward(params, x)
        model.backward(params, grads, upstream, need_input_grad=False)
        if proximal_mu:
            nn_cohort.add_proximal_term(grads, params, global_ref, proximal_mu)
        nn_cohort.sgd_step(params, grads, learning_rate=0.05, weight_decay=weight_decay)

        assert params.tobytes() == want_params.tobytes()


def test_backward_rejects_a_scratch_it_cannot_write_through():
    model, params, x, upstream = _cohort("logreg", 2)
    model.forward(params, x)
    with pytest.raises(ValueError, match="C-contiguous"):
        model.backward(params, np.asfortranarray(np.empty_like(params)), upstream)
    with pytest.raises(ValueError, match="C-contiguous"):
        model.backward(params, np.empty((2, model.num_parameters + 1)), upstream)


@pytest.mark.parametrize(
    "weight_slice, bias_slice, total",
    [
        ((0, 12), (13, 16), 16),  # gap: column 12 would never be written
        ((0, 12), (11, 14), 14),  # overlap: column 11 written twice
        ((1, 13), (13, 16), 16),  # does not start at 0
        ((0, 12), (12, 15), 16),  # stops short of num_parameters
        ((0, 12), (12, 12), 12),  # empty slice
    ],
)
def test_compile_rejects_slices_that_do_not_tile(weight_slice, bias_slice, total):
    ops = [_CohortFlatten(), _CohortLinear(4, 3, weight_slice, bias_slice)]
    with pytest.raises(ValueError, match="slices"):
        CohortModel(ops, total)


# ---------------------------------------------------------------------------
# (d), (e) the unread input gradient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize("name", STACKS)
def test_cohort_skip_changes_only_the_return_value(name, clients):
    model, params, x, upstream = _cohort(name, clients)
    model.forward(params, x)
    full = np.full_like(params, np.nan)
    skipped = np.full_like(params, np.nan)

    assert model.backward(params, full, upstream) is not None
    assert model.backward(params, skipped, upstream, need_input_grad=False) is None
    assert skipped.tobytes() == full.tobytes()


def _serial_grads(model: Sequential, x, upstream, **kwargs):
    model.zero_grad()
    model.forward(x)
    returned = model.backward(upstream, **kwargs)
    return returned, b"".join(p.grad.tobytes() for p in model.parameters())


@pytest.mark.parametrize("name", STACKS)
def test_sequential_skip_changes_only_the_return_value(name):
    rng = np.random.default_rng(14)
    model = _stack(name)
    x, upstream = rng.standard_normal((3, 2, 3)), rng.standard_normal((3, 4))

    full_input, full = _serial_grads(model, x, upstream)
    skipped_input, skipped = _serial_grads(model, x, upstream, need_input_grad=False)

    assert full_input.shape == x.shape
    assert skipped_input is None
    assert skipped == full


def test_linear_skip_changes_only_the_return_value():
    rng = np.random.default_rng(15)
    layer = Linear(4, 3, rng)
    x, upstream = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
    layer.forward(x)
    assert layer.backward(upstream).shape == x.shape
    want = (layer.weight.grad.copy(), layer.bias.grad.copy())
    layer.zero_grad()
    assert layer.backward(upstream, need_input_grad=False) is None
    np.testing.assert_array_equal(layer.weight.grad, want[0])
    np.testing.assert_array_equal(layer.bias.grad, want[1])


def test_skip_applies_to_the_input_layer_only():
    """An activation ahead of the first ``Linear`` reads that layer's input
    gradient, so nothing is skipped: both stacks still propagate all the way
    and every parameter gradient — the first layer's included — is unchanged."""
    rng = np.random.default_rng(16)
    layers = (Tanh(), Linear(6, 5, rng), ReLU(), Linear(5, 4, rng))
    x, upstream = rng.standard_normal((3, 6)), rng.standard_normal((3, 4))

    serial = Sequential(*layers)
    full_input, full = _serial_grads(serial, x, upstream)
    kept_input, kept = _serial_grads(serial, x, upstream, need_input_grad=False)
    assert kept == full
    np.testing.assert_array_equal(kept_input, full_input)

    model = CohortModel.from_module(serial)
    params = rng.standard_normal((2, model.num_parameters))
    xs, ups = rng.standard_normal((2, 3, 6)), rng.standard_normal((2, 3, 4))
    model.forward(params, xs)
    want_input, want = reference_backward(model, params, ups)
    grads = np.full_like(params, np.nan)
    got_input = model.backward(params, grads, ups, need_input_grad=False)
    np.testing.assert_array_equal(grads, want)
    np.testing.assert_array_equal(got_input, want_input)


# ---------------------------------------------------------------------------
# (b) shared == private, (c) work counts
# ---------------------------------------------------------------------------

def _clients(dataset, *, private: bool, model_name: str = "logreg") -> dict[int, FLClient]:
    """One ``FLClient`` per shard; ``private`` hands each its own array copies."""
    factory = ModelFactory(model_name, 784, 10, seed=5, label="kernels", hidden_sizes=(8,))
    clients = {}
    for shard in dataset.clients:
        if private:
            shard = ClientDataset(
                shard.client_id,
                shard.images.copy(),
                shard.labels.copy(),
                shard.val_images.copy(),
                shard.val_labels.copy(),
            )
        clients[shard.client_id] = FLClient(shard, factory, new_rng(5, "kernels", shard.client_id))
    return clients


def _block_bytes(blocks):
    return [
        (b.client_ids, b.parameters.tobytes(), b.num_samples, b.train_losses, b.val_accuracies)
        for b in blocks
    ]


@settings(max_examples=12, deadline=None)
@given(
    distinct=st.integers(1, 4),
    replicas=st.integers(1, 3),
    batch_size=st.sampled_from([4, 7, 16]),
    epochs=st.integers(1, 2),
    chunk=st.sampled_from([2, 5, 64]),
)
def test_shared_shards_equal_private_copies(distinct, replicas, batch_size, epochs, chunk):
    dataset = build_federated_dataset(
        num_clients=distinct * replicas + 1, num_samples=40 * distinct, scheme="iid",
        seed=5, distinct_shards=distinct,
    )
    config = LocalTrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.05)
    selected = [shard.client_id for shard in dataset.clients][::-1]
    global_parameters = new_rng(5, "global").standard_normal(7850) * 0.01

    results = []
    for private in (False, True):
        trainer = CohortTrainer(max_cohort_size=chunk)
        clients = _clients(dataset, private=private)
        blocks = list(trainer.iter_update_blocks(clients, selected, global_parameters, config))
        results.append(
            (_block_bytes(blocks), trainer.evaluate_population(clients, selected, global_parameters))
        )
    assert results[0] == results[1]


def test_loss_mean_matches_serial_past_the_pairwise_block():
    """The per-client mean over a ``(clients, steps)`` array must be the serial
    ``np.mean`` of a list of step losses bit for bit — also beyond 128 steps,
    where NumPy's pairwise summation starts splitting the row."""
    dataset = build_federated_dataset(num_clients=3, num_samples=600, scheme="iid", seed=5)
    config = LocalTrainingConfig(epochs=1, batch_size=1, learning_rate=0.05)
    assert dataset.clients[0].num_samples > 128
    start = new_rng(5, "global").standard_normal(7850) * 0.01

    updates = CohortTrainer().run_local_updates(
        _clients(dataset, private=False), [0, 1, 2], start, config
    )
    for update, client in zip(updates, _clients(dataset, private=False).values()):
        serial = client.local_update(start, config)
        assert update.train_loss == serial.train_loss
        assert update.val_accuracy == serial.val_accuracy
        assert update.parameters.tobytes() == serial.parameters.tobytes()


def test_evaluation_scores_each_distinct_shard_once(monkeypatch):
    """All clients are scored under one model, so 12 clients over 3 archetype
    shards cost 3 forward rows in total, not 12 — across chunk boundaries."""
    dataset = build_federated_dataset(
        num_clients=12, num_samples=120, scheme="iid", seed=5, distinct_shards=3
    )
    clients = _clients(dataset, private=False)
    rows = []
    forward = CohortModel.forward
    monkeypatch.setattr(
        CohortModel, "forward", lambda self, params, x: rows.append(len(x)) or forward(self, params, x)
    )
    accuracies = CohortTrainer(max_cohort_size=5).evaluate_population(
        clients, list(clients), np.zeros(7850)
    )
    assert sum(rows) == 3
    assert accuracies == [clients[cid].evaluate(np.zeros(7850)) for cid in clients]


@pytest.mark.parametrize("model_name, linears", [("logreg", 1), ("mlp", 2)])
def test_one_training_step_does_the_minimum_work(monkeypatch, model_name, linears):
    """3L - 1 matmuls per step — forward, weight gradient, and an input gradient
    for every ``Linear`` but the first — and each distinct shard stacked once."""
    dataset = build_federated_dataset(
        num_clients=12, num_samples=120, scheme="iid", seed=5, distinct_shards=3
    )
    clients = _clients(dataset, private=False, model_name=model_name)
    shard = dataset.clients[0]
    # One step: a single epoch whose batch covers the whole shard.
    config = LocalTrainingConfig(epochs=1, batch_size=shard.num_samples, learning_rate=0.05)
    start = get_flat_parameters(clients[0].model)

    matmuls, stacked = [], []
    real_matmul, real_stack = np.matmul, np.stack
    monkeypatch.setattr(
        np, "matmul", lambda *a, **kw: matmuls.append(a[0].shape) or real_matmul(*a, **kw)
    )
    monkeypatch.setattr(
        np, "stack", lambda arrays, **kw: stacked.append(list(arrays)) or real_stack(arrays, **kw)
    )
    (block,) = CohortTrainer().iter_update_blocks(clients, list(clients), start, config)
    monkeypatch.undo()

    assert len(block.client_ids) == 12
    validation_forward = linears
    assert len(matmuls) == (3 * linears - 1) + validation_forward, matmuls
    train_stacks = [arrays for arrays in stacked if len(arrays[0]) == shard.num_samples]
    assert [len(arrays) for arrays in train_stacks] == [3, 3]  # images, labels


# ---------------------------------------------------------------------------
# One set of activation kernels: the cohort ops *are* the serial layers.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_ops_wrap_the_serial_layer_classes(name):
    template = _stack(name)
    model = CohortModel.from_module(template)
    (wrapped,) = [op.layer for op in model.ops if hasattr(op, "layer")]
    assert type(wrapped) is ACTIVATIONS[name]
    # A fresh instance: training a cohort must not touch the template's caches.
    assert all(wrapped is not layer for layer in template.layers)


def test_dropout_is_compiled_away_or_refused():
    rng = np.random.default_rng(3)
    layers = [Flatten(), Linear(6, 5, rng), ReLU(), Linear(5, 4, rng)]
    plain = CohortModel.from_module(Sequential(*layers))
    with_dropout = CohortModel.from_module(
        Sequential(*layers[:3], Dropout(0.0, rng), layers[3])
    )
    assert [type(op) for op in with_dropout.ops] == [type(op) for op in plain.ops]
    with pytest.raises(CohortUnsupportedError, match="Dropout"):
        CohortModel.from_module(Sequential(*layers[:3], Dropout(0.25, rng), layers[3]))


def test_softmax_on_a_matrix_still_reduces_over_axis_one():
    """``axis=-1`` is ``axis=1`` for the serial 2-D input: byte-equal to the old expression."""
    rng = np.random.default_rng(2024)
    layer = Softmax()
    for _ in range(200):
        x = rng.normal(scale=rng.uniform(0.1, 30.0), size=(rng.integers(1, 9), rng.integers(1, 12)))
        g = rng.normal(size=x.shape)
        shifted = x - x.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        expected = exp / exp.sum(axis=1, keepdims=True)
        assert layer.forward(x).tobytes() == expected.tobytes()
        dot = np.sum(g * expected, axis=1, keepdims=True)
        assert layer.backward(g).tobytes() == (expected * (g - dot)).tobytes()
