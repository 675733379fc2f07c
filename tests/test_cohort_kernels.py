"""Executable properties of the cohort container and the layers it walks.

The cohort engine has no math of its own: ``CohortModel`` binds a ``(clients,
P)`` matrix onto a template's serial layers and runs them on stacked operands.
What makes that sound is held here as properties — every layer, the loss and
``accuracy`` on a stacked operand equal themselves run slice by slice;
``bind_parameters`` hands out views, never copies; a finished chunk pins
nothing it was lent.

The batched training step also has three mechanisms that each trade a safety
net for speed, so each gets a guard that fails loudly instead of training on
garbage:

* **write, don't accumulate** — ``CohortModel.backward`` overwrites the flat
  ``grads`` scratch instead of adding into zeros, so an unwritten column would
  be uninitialised memory.  The scratch is poisoned with ``NaN`` and the
  result held against the accumulate-into-zeros reference kept below;
* **the unread input gradient** — a first ``Linear`` that skips its input
  gradient must change nothing but its return value, and a chain that stops
  there no parameter gradient;
* **each distinct shard stacked once** — a replicated population and its
  private-copy twin must yield byte-identical blocks, and the work counts
  (``np.matmul`` calls per step, arrays handed to ``np.stack``) must stay at
  the floor.

And one structural promise: every cohort layer *is* a serial layer instance —
``from_module`` adopts the template's own objects — so the two training paths
cannot disagree on a layer.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import ClientDataset, build_federated_dataset
from repro.fl.client import FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.cohort import CohortTrainer
from repro.nn import cohort as nn_cohort
from repro.nn.cohort import CohortModel
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.models import ModelFactory, build_model
from repro.nn.module import Sequential
from repro.nn.optim import add_proximal_term, sgd_step
from repro.nn.parameters import (
    bind_parameters,
    get_flat_parameters,
    pack_parameters,
    set_flat_parameters,
)
from repro.utils.rng import new_rng

pytestmark = pytest.mark.cohort


# ---------------------------------------------------------------------------
# References: the accumulate-into-zeros backward and the allocating SGD step
# these kernels replaced, kept as the oracle.
# ---------------------------------------------------------------------------

def reference_backward(
    model: CohortModel, params: np.ndarray, grad_output: np.ndarray
) -> np.ndarray:
    """The ``(clients, P)`` parameter gradients, accumulated into zeros,
    reading the bound layers' caches but slicing ``params`` / ``grads`` by its
    own column count, not through their views."""
    grads = np.zeros_like(params)
    g = np.asarray(grad_output, dtype=np.float64)
    hi = model.num_parameters
    for layer in reversed(model.layers):
        if isinstance(layer, Linear):
            x = layer._input_cache
            out_features = layer.weight.shape[-1]
            mid = hi - out_features
            lo = mid - layer.in_features * out_features
            grad_w = np.matmul(x.transpose(0, 2, 1), g)
            grads[:, lo:mid] += grad_w.reshape(grad_w.shape[0], -1)
            grads[:, mid:hi] += g.sum(axis=1)
            weights = params[:, lo:mid].reshape(-1, layer.in_features, out_features)
            g = np.matmul(g, weights.transpose(0, 2, 1))
            hi = lo
        else:
            g = layer.backward(g)
    assert hi == 0
    return grads


def reference_sgd_step(params, grads, *, learning_rate):
    params -= learning_rate * grads


ACTIVATIONS = {"relu": ReLU}
STACKS = ("logreg", "mlp", "linear-linear", "deep-mlp", *ACTIVATIONS)


def _stack(name: str) -> Sequential:
    """A serial stack over 6 flattened features and 4 classes."""
    rng = np.random.default_rng(11)
    if name in ("logreg", "mlp"):
        return build_model(name, 6, 4, rng, hidden_sizes=(5,))
    if name == "deep-mlp":  # two ReLUs: one sits between two hidden Linears
        return build_model("mlp", 6, 4, rng, hidden_sizes=(5, 3))
    if name == "linear-linear":  # no activation between the two Linears
        return Sequential(Flatten(), Linear(6, 5, rng), Linear(5, 4, rng))
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
    want = reference_backward(model, params, upstream)

    grads = np.full_like(params, np.nan)
    assert model.backward(params, grads, upstream) is None

    np.testing.assert_array_equal(grads, want)


@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize("proximal_mu", [0.0, 0.1])
def test_training_steps_match_the_accumulating_reference(clients, proximal_mu):
    """Backward, FedProx term, SGD — two steps on one never-zeroed scratch."""
    model, params, x, upstream = _cohort("mlp", clients)
    global_ref = params[0] * 0.9
    want_params = params.copy()
    grads = np.full_like(params, np.nan)
    for _ in range(2):
        model.forward(want_params, x)
        want = reference_backward(model, want_params, upstream)
        if proximal_mu:
            add_proximal_term(want, want_params, global_ref, proximal_mu)
        reference_sgd_step(want_params, want, learning_rate=0.05)

        model.forward(params, x)
        model.backward(params, grads, upstream)
        if proximal_mu:
            add_proximal_term(grads, params, global_ref, proximal_mu)
        sgd_step(params, grads, learning_rate=0.05)

        assert params.tobytes() == want_params.tobytes()


def test_backward_rejects_a_scratch_it_cannot_write_through():
    model, params, x, upstream = _cohort("logreg", 2)
    model.forward(params, x)
    with pytest.raises(ValueError, match="C-contiguous"):
        model.backward(params, np.asfortranarray(np.empty_like(params)), upstream)
    with pytest.raises(ValueError, match="C-contiguous"):
        model.backward(params, np.empty((2, model.num_parameters + 1)), upstream)


@pytest.mark.parametrize("lead", ((), (3,)))
@pytest.mark.parametrize("off_by", (-1, 1))
def test_bind_rejects_a_buffer_of_the_wrong_width(lead, off_by):
    """The columns tile ``[0, P)`` by construction, so the one way left to get
    an unwritten or twice-written column is a buffer that is not ``P`` wide."""
    model = _stack("mlp")
    total = get_flat_parameters(model).size
    good, bad = np.zeros((*lead, total)), np.zeros((*lead, total + off_by))
    with pytest.raises(ValueError, match=f"model of {total} parameters"):
        bind_parameters(model, bad, good)
    with pytest.raises(ValueError, match=f"model of {total} parameters"):
        bind_parameters(model, good, bad)
    assert model.packed is None  # refused before anything was re-homed


# ---------------------------------------------------------------------------
# (d), (e) the unread input gradient
# ---------------------------------------------------------------------------

def test_linear_skip_changes_only_the_return_value():
    rng = np.random.default_rng(15)
    layer = Linear(4, 3, rng)
    x, upstream = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
    layer.forward(x)
    assert layer.backward(upstream).shape == x.shape
    want = (layer.weight.grad.copy(), layer.bias.grad.copy())
    layer.weight.grad.fill(np.nan)
    layer.bias.grad.fill(np.nan)
    assert layer.backward(upstream, need_input_grad=False) is None
    np.testing.assert_array_equal(layer.weight.grad, want[0])
    np.testing.assert_array_equal(layer.bias.grad, want[1])


def test_an_activation_ahead_of_the_first_linear_changes_no_gradient():
    """With a ``ReLU`` ahead of the first ``Linear`` the serial chain still
    stops at that layer, which skips its input gradient, and the cohort walk
    goes on to the input; every parameter gradient of both — the first
    layer's included — is the reference's."""

    def stack() -> Sequential:
        rng = np.random.default_rng(16)
        return Sequential(ReLU(), Linear(6, 5, rng), ReLU(), Linear(5, 4, rng))

    data = np.random.default_rng(17)
    x, upstream = data.standard_normal((2, 3, 6)), data.standard_normal((2, 3, 4))
    model = CohortModel.from_module(stack())
    params = data.standard_normal((2, model.num_parameters))
    model.forward(params, x)
    want = reference_backward(model, params, upstream)
    grads = np.full_like(params, np.nan)
    model.backward(params, grads, upstream)
    np.testing.assert_array_equal(grads, want)

    serial = pack_parameters(stack())
    for i in range(2):
        set_flat_parameters(serial, params[i])
        serial.packed[1].fill(np.nan)
        serial.forward(x[i])
        assert serial.backward(upstream[i]) is None
        np.testing.assert_array_equal(serial.packed[1], want[i])


@pytest.mark.parametrize("clients", (1, 3))
@pytest.mark.parametrize("name", STACKS)
def test_a_second_cohort_backward_writes_the_same_gradients(name, clients):
    """A backward reads the forward's caches without consuming them and writes
    over the buffer: run twice on one forward, the second finds the first's
    gradients in ``grads`` and leaves exactly them (an accumulating write would
    double them, a cache mutated in place would change them)."""
    model, params, x, upstream = _cohort(name, clients)
    model.forward(params, x)
    grads = np.full_like(params, np.nan)
    assert model.backward(params, grads, upstream) is None
    first = grads.copy()
    assert model.backward(params, grads, upstream) is None
    assert grads.tobytes() == first.tobytes()


def _serial_rows(name: str, params: np.ndarray, x: np.ndarray, upstream: np.ndarray):
    """Each client's gradients from the packed serial stack, one row at a time,
    the buffer poisoned with ``NaN`` before every backward."""
    serial = pack_parameters(_stack(name))
    rows = np.empty_like(params)
    for i in range(params.shape[0]):
        set_flat_parameters(serial, params[i])
        serial.packed[1].fill(np.nan)
        serial.forward(x[i])
        assert serial.backward(upstream[i]) is None
        rows[i] = serial.packed[1]
    return serial, rows


@pytest.mark.parametrize("name", STACKS)
def test_sequential_backward_equals_each_cohort_row(name):
    """The serial chain, which stops at its first ``Linear``, writes the same
    bytes as the cohort walk, which goes on to the input, client by client."""
    model, params, x, upstream = _cohort(name, 3)
    model.forward(params, x)
    want = reference_backward(model, params, upstream)
    _, rows = _serial_rows(name, params, x, upstream)
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", STACKS)
def test_a_second_sequential_backward_writes_the_same_gradients(name):
    _, params, x, upstream = _cohort(name, 1)
    serial, rows = _serial_rows(name, params, x, upstream)
    assert serial.backward(upstream[0]) is None  # the forward of row 0 is still cached
    assert serial.packed[1].tobytes() == rows[0].tobytes()


# ---------------------------------------------------------------------------
# (b) shared == private, (c) work counts
# ---------------------------------------------------------------------------

def _clients(dataset, *, private: bool, model_name: str = "logreg") -> dict[int, FLClient]:
    """One ``FLClient`` per shard; ``private`` hands each its own array copies."""
    workspace = ModelWorkspace(
        ModelFactory(model_name, 784, 10, seed=5, label="kernels", hidden_sizes=(8,))
    )
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
        rng = new_rng(5, "kernels", shard.client_id)
        clients[shard.client_id] = FLClient(shard, workspace, rng)
    return clients


def _block_bytes(blocks):
    return [
        (b.client_ids, b.parameters.tobytes(), b.train_losses)
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
        serial = client.local_update(start, config, client.draw_orders(config.epochs))
        assert update.train_loss == serial.train_loss
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
    for every ``Linear`` but the first — and each distinct shard stacked once.
    Nothing else: no forward scores the trained parameters."""
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
    trainer = CohortTrainer()
    (block,) = trainer.iter_update_blocks(clients, list(clients), start, config)
    monkeypatch.undo()

    assert len(block.client_ids) == 12
    assert len(matmuls) == 3 * linears - 1, matmuls
    train_stacks = [arrays for arrays in stacked if len(arrays[0]) == shard.num_samples]
    assert [len(arrays) for arrays in train_stacks] == [3, 3]  # images, labels
    # The part's last mini-batch is not left cached on the template's layers.
    (model,) = trainer._models.values()
    assert all(layer._input_cache is None for layer in model.layers if isinstance(layer, Linear))


@pytest.mark.parametrize("model_name", ["logreg", "mlp"])
@pytest.mark.parametrize("epochs, batch_size", [(1, 7), (2, 10), (3, 64)])
def test_a_serial_local_update_runs_one_forward_per_step(
    monkeypatch, model_name, epochs, batch_size
):
    """The serial twin of the count above: ``E · ⌈n / B⌉`` model forwards, one
    per mini-batch step, and no cached input left behind on the scratch model."""
    dataset = build_federated_dataset(num_clients=2, num_samples=90, scheme="iid", seed=5)
    client = _clients(dataset, private=False, model_name=model_name)[0]
    n = client.dataset.num_samples
    start = get_flat_parameters(client.model)
    forwards = []
    forward = Sequential.forward
    monkeypatch.setattr(
        Sequential, "forward", lambda self, x: forwards.append(len(x)) or forward(self, x)
    )
    config = LocalTrainingConfig(epochs=epochs, batch_size=batch_size)
    client.local_update(start, config, client.draw_orders(epochs))
    monkeypatch.undo()

    assert len(forwards) == epochs * -(-n // batch_size), forwards
    assert sum(forwards) == epochs * n  # every step is a training mini-batch
    linears = [layer for layer in client.model.layers if isinstance(layer, Linear)]
    assert linears and all(layer._input_cache is None for layer in linears)


# ---------------------------------------------------------------------------
# One set of layers: the cohort layers *are* the template's serial layers.
# ---------------------------------------------------------------------------

def test_the_cohort_module_exports_no_math():
    """A batched twin of a layer, loss or metric cannot quietly come back."""
    assert nn_cohort.__all__ == ["CohortModel"]


@pytest.mark.parametrize("name", STACKS)
def test_every_cohort_layer_is_a_template_layer(name):
    """``from_module`` takes ownership: it walks the template's own ``Linear``
    and activation objects (``Flatten`` hoisted into one reshape) and packs the
    template, whose storage is what ``release`` returns the layers to."""
    template = _stack(name)
    before = get_flat_parameters(template)
    model = CohortModel.from_module(template)
    kept = [layer for layer in template.layers if not isinstance(layer, Flatten)]
    assert len(model.layers) == len(kept)
    assert all(ours is theirs for ours, theirs in zip(model.layers, kept))
    assert model.template is template and template.packed is not None
    assert get_flat_parameters(template).tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# One set of math held to itself across ranks.
# ---------------------------------------------------------------------------

def _bound(layer, values, grads):
    """``layer`` with its parameters bound to the given buffers (``Linear`` only)."""
    if isinstance(layer, Linear):
        bind_parameters(layer, values, grads)
    return layer


def _layer_pass(layer, values, x, upstream):
    """Forward, then the backward with and without the input gradient."""
    grads = np.full_like(values, np.nan)
    out = _bound(layer, values, grads).forward(x)
    first = layer.backward(upstream)
    if isinstance(layer, Linear):
        written = grads.copy()
        assert layer.backward(upstream, need_input_grad=False) is None
        assert grads.tobytes() == written.tobytes()
    return [out, first, grads]


@pytest.mark.cohort
@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["linear", *ACTIVATIONS]), min_size=1, max_size=5),
    widths=st.lists(st.integers(1, 6), min_size=6, max_size=6),
    clients=st.sampled_from([1, 3]),
    batch=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_stacked_operands_equal_their_slices(kinds, widths, clients, batch, seed):
    """Each layer, the loss and ``accuracy`` on ``(clients, batch, ...)`` are,
    per client, the bytes of the same object run on that ``(batch, ...)`` slice:
    stacked ``matmul`` and last-axis reductions do not see the leading axis."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((clients, batch, widths[0])) * 2.0
    for kind, width in zip(kinds, widths[1:]):
        if kind == "linear":
            layer = Linear(x.shape[-1], width, rng)
            size = layer.weight.size + layer.bias.size
        else:
            layer, width, size = ACTIVATIONS[kind](), x.shape[-1], 0
        values = rng.standard_normal((clients, size))
        upstream = rng.standard_normal((clients, batch, width))
        stacked = _layer_pass(layer, values, x, upstream)
        for i in range(clients):
            alone = _layer_pass(layer, values[i], x[i], upstream[i])
            for whole, part in zip(stacked, alone):
                assert whole[i].tobytes() == part.tobytes(), (kind, i)
        x = stacked[0]

    labels = rng.integers(0, x.shape[-1], size=(clients, batch))
    loss = SoftmaxCrossEntropyLoss()
    losses, scores = loss.forward(x, labels), accuracy(x, labels)
    grad = loss.backward()
    assert losses.shape == scores.shape == (clients,)
    for i in range(clients):
        assert isinstance(loss.forward(x[i], labels[i]), float)
        assert loss.forward(x[i], labels[i]) == losses[i]
        assert loss.backward().tobytes() == grad[i].tobytes()
        assert accuracy(x[i], labels[i]) == scores[i]


@pytest.mark.parametrize(
    "carve",
    [
        lambda big, total: big[:, :total],  # a plain (clients, P) matrix
        lambda big, total: big[:, 5 : 5 + total],  # a column range: rows not contiguous
        lambda big, total: big[1, 5 : 5 + total],  # one (P,) plane of it
        lambda big, total: big[:, : 2 * total : 2],  # every other column
    ],
)
def test_bound_parameters_are_views_of_the_buffers(carve):
    """Writes through a bound ``value`` / ``grad`` land in the buffer — also for
    a non-contiguous one, where a careless ``reshape`` would silently copy."""
    model = _stack("mlp")
    total = get_flat_parameters(model).size
    shapes = [p.shape for p in model.parameters()]
    big_values, big_grads = np.zeros((3, 2 * total + 9)), np.zeros((3, 2 * total + 9))
    values, grads = carve(big_values, total), carve(big_grads, total)
    assert bind_parameters(model, values, grads) is model
    assert model.packed[0] is values and model.packed[1] is grads

    lo = 0
    for k, (p, shape) in enumerate(zip(model.parameters(), shapes), 1):
        assert p.value.shape == p.grad.shape == values.shape[:-1] + shape
        assert np.shares_memory(p.value, big_values) and np.shares_memory(p.grad, big_grads)
        p.value[...] = k
        p.grad[...] = -k
        hi = lo + int(np.prod(shape))
        assert (values[..., lo:hi] == k).all() and (grads[..., lo:hi] == -k).all()
        lo = hi
    assert lo == total and (values != 0).all() and (grads != 0).all()
    assert np.count_nonzero(big_values) == values.size  # and nothing beyond the carve


def test_a_finished_chunk_pins_nothing_it_was_lent(monkeypatch):
    """The template's parameters are views of a chunk's ``params`` / ``grads``
    while it trains; once the block is out (and once an evaluation returns)
    they are back on the template's own storage, so the scratch is freed and a
    returned ``CohortBlock.parameters`` is nobody else's to write."""
    dataset = build_federated_dataset(
        num_clients=7, num_samples=140, scheme="iid", seed=5, distinct_shards=3
    )
    clients = _clients(dataset, private=False, model_name="mlp")
    config = LocalTrainingConfig(epochs=1, batch_size=16, learning_rate=0.05)
    start = get_flat_parameters(clients[0].model)

    lent = []
    forward, backward = CohortModel.forward, CohortModel.backward

    def spy_forward(self, params, x):
        lent.append(weakref.ref(params))
        return forward(self, params, x)

    def spy_backward(self, params, grads, grad_output, **kwargs):
        lent.append(weakref.ref(grads))
        return backward(self, params, grads, grad_output, **kwargs)

    monkeypatch.setattr(CohortModel, "forward", spy_forward)
    monkeypatch.setattr(CohortModel, "backward", spy_backward)

    trainer = CohortTrainer(max_cohort_size=4)
    blocks = list(trainer.iter_update_blocks(clients, list(clients), start, config))
    assert len(blocks) >= 2 and len(lent) > 4
    kept = {id(block.parameters) for block in blocks}
    assert all(ref() is None or id(ref()) in kept for ref in lent)  # every grads scratch is dead
    (model,) = trainer._models.values()
    for block in blocks:
        for p in model.template.parameters():
            assert not np.shares_memory(p.value, block.parameters)
            assert not np.shares_memory(p.grad, block.parameters)

    del lent[:]
    trainer.evaluate_population(clients, list(clients), start)
    assert lent and all(ref() is None for ref in lent)
    assert model.template.packed[0].shape == start.shape  # back on its own (P,) plane
