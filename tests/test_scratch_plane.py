"""The serial training path's shared scratch plane: aliasing, lifetime, byte parity.

Local training runs on one *packed* scratch model, owned by the trainer's
:class:`~repro.fl.client.ModelWorkspace` and shared by all of its clients; a step writes the gradients instead of accumulating them and consumes
them in place.  Three things can go wrong, and each is pinned here:

* **aliasing** — a vector handed out (``ClientUpdate.parameters``,
  ``get_flat_parameters``) must be a copy, or the next client to train would
  overwrite an update already uploaded;
* **lifetime** — a trainer holds one scratch model, not one per client; it
  dies with its trainer and does not travel in a checkpoint;
* **bytes** — every trimmed kernel is held to a reference written here:
  gradients accumulated into fresh zeros, a per-parameter step, a gather per
  batch (``-m cohort`` runs these with the cohort engine's own parity suite).

Stop/resume parity on both backends is ``tests/test_checkpoint.py``'s, and
serial == cohort histories ``tests/test_cohort_parity.py``'s.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import ClientDataset
from repro.datasets.loaders import minibatches
from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.trainer import CHECKPOINT_SCHEMA_VERSION
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.models import ModelFactory
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.nn.parameters import get_flat_parameters, pack_parameters, set_flat_parameters
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.utils.rng import new_rng

FACTORY = ModelFactory("mlp", 784, 10, seed=3, label="plane", hidden_sizes=(8,))
CONFIG = LocalTrainingConfig(epochs=2, batch_size=7, learning_rate=0.05)


def _global_vector(seed: int = 3) -> np.ndarray:
    size = get_flat_parameters(FACTORY()).size
    return new_rng(seed, "plane-global").standard_normal(size) * 0.05


# ---------------------------------------------------------------------------
# (a) aliasing
# ---------------------------------------------------------------------------


def test_no_vector_that_leaves_the_plane_aliases_it(tiny_federated):
    workspace = ModelWorkspace(FACTORY)
    first = FLClient(tiny_federated.client(0), workspace, new_rng(3, "plane", 0))
    second = FLClient(tiny_federated.client(1), workspace, new_rng(3, "plane", 1))
    assert first.model is second.model

    update_a = first.local_update(_global_vector(), CONFIG)
    uploaded = update_a.parameters.copy()
    update_b = second.local_update(_global_vector(), CONFIG)
    second.evaluate(_global_vector(4))

    np.testing.assert_array_equal(update_a.parameters, uploaded)
    assert not np.array_equal(update_a.parameters, update_b.parameters)
    values, grads = workspace.model().packed
    for vector in (update_a.parameters, update_b.parameters, get_flat_parameters(first.model)):
        assert not np.shares_memory(vector, values)
        assert not np.shares_memory(vector, grads)


def test_a_shared_workspace_changes_no_update(tiny_federated):
    """A client on a workspace another client just trained in returns the
    bytes of a client alone on its own: nothing the first left in the scratch
    model leaks into the second's update."""
    shard = tiny_federated.client(0)
    alone = FLClient(shard, ModelWorkspace(FACTORY), new_rng(3, "plane", 0))
    want = alone.local_update(_global_vector(), CONFIG)

    workspace = ModelWorkspace(FACTORY)
    FLClient(tiny_federated.client(1), workspace, new_rng(3, "plane", 1)).local_update(
        _global_vector(5), CONFIG
    )
    shared = FLClient(shard, workspace, new_rng(3, "plane", 0))
    got = shared.local_update(_global_vector(), CONFIG)
    assert shared.model is not alone.model
    assert got.parameters.tobytes() == want.parameters.tobytes()
    assert got.train_loss == want.train_loss


# ---------------------------------------------------------------------------
# (b) lifetime: one model, which does not outlive its trainer
# ---------------------------------------------------------------------------


def test_one_scratch_model_dies_with_the_trainer():
    spec = ScenarioSpec(
        num_clients=100, num_samples=1000, num_rounds=1, seed=3, model_name="mlp",
        hidden_sizes=(8,), epochs=1, verify_signatures=False,
    )
    trainer = FairBFLTrainer(ExperimentEngine().dataset_for(spec), spec)
    assert len({id(c.workspace) for c in trainer.clients.values()}) == 1
    trainer.run()
    model = trainer._workspace._model
    assert model is not None and model.packed is not None
    assert all(c.model is model for c in trainer.clients.values())

    payload = pickle.loads(trainer.checkpoint_state())
    assert payload["version"] == CHECKPOINT_SCHEMA_VERSION == 8
    assert "_workspace" not in payload["attrs"]

    ref = weakref.ref(model)
    del model
    trainer.close()
    del trainer
    gc.collect()
    assert ref() is None


def _live_models() -> int:
    gc.collect()
    return sum(isinstance(o, Module) for o in gc.get_objects())


def test_engine_runs_on_distinct_seeds_leave_no_model_behind():
    engine = ExperimentEngine()
    spec = dict(system="fedavg", num_clients=4, num_samples=200, num_rounds=1, model_name="mlp")
    engine.run(ScenarioSpec(seed=100, **spec))  # warm every lazy import first
    before = _live_models()
    for seed in range(20):
        engine.run(ScenarioSpec(seed=seed, **spec))
    assert _live_models() == before


# ---------------------------------------------------------------------------
# Byte parity with the code these kernels replaced
# ---------------------------------------------------------------------------

ACTIVATIONS = {"none": None, "relu": ReLU}

stacks = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "features": st.sampled_from([(6,), (2, 3)]),
        "hidden": st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from(sorted(ACTIVATIONS))),
            max_size=2,
        ),
        "classes": st.integers(2, 5),
        "flatten": st.booleans(),
    }
)


def build_stack(spec: dict) -> Sequential:
    """A ``Flatten`` / ``Linear`` / activation stack; the same ``spec`` builds a twin."""
    rng = np.random.default_rng(spec["seed"])
    flatten = spec["flatten"] or len(spec["features"]) > 1
    layers: list[Module] = [Flatten()] if flatten else []
    width = int(np.prod(spec["features"]))
    for out, activation in spec["hidden"]:
        layers.append(Linear(width, out, rng, init="he"))
        if ACTIVATIONS[activation] is not None:
            layers.append(ACTIVATIONS[activation]())
        width = out
    layers.append(Linear(width, spec["classes"], rng))
    return Sequential(*layers)


def make_shard(spec: dict, rows: int, client_id: int = 0) -> ClientDataset:
    rng = np.random.default_rng(spec["seed"] + 1)
    shape = spec["features"]
    return ClientDataset(
        client_id,
        rng.standard_normal((rows, *shape)),
        rng.integers(0, spec["classes"], rows),
        rng.standard_normal((5, *shape)),
        rng.integers(0, spec["classes"], 5),
    )


def reference_minibatches(images, labels, batch_size, rng):
    """The per-batch fancy index ``minibatches`` used to do."""
    order = rng.permutation(images.shape[0])
    for start in range(0, images.shape[0], batch_size):
        sel = order[start : start + batch_size]
        yield images[sel], labels[sel]


def reference_backward(model: Sequential, grad_output: np.ndarray) -> list[np.ndarray]:
    """Each parameter gradient of ``model``'s last forward, in ``parameters()``
    order: accumulated layer by layer into fresh zeros from the cached inputs,
    through the full chain (every input gradient computed)."""
    grads: list[np.ndarray] = []
    g = np.asarray(grad_output, dtype=np.float64)
    for layer in reversed(model.layers):
        if isinstance(layer, Linear):
            weight, bias = np.zeros(layer.weight.shape), np.zeros(layer.bias.shape)
            weight += layer._input_cache.T @ g
            bias += g.sum(axis=0)
            grads[:0] = [weight, bias]
            g = g @ layer.weight.value.T
        else:
            g = layer.backward(g)
    return grads


def reference_local_update(
    model: Module, dataset: ClientDataset, rng, global_parameters, config
) -> ClientUpdate:
    """Procedure I as it ran before the shared plane: a private unpacked model,
    gradients into fresh zeros, per-parameter proximal term and step."""
    set_flat_parameters(model, global_parameters)
    loss_fn = SoftmaxCrossEntropyLoss()
    params = list(model.parameters())
    offsets, cursor = [], 0
    for p in params:
        offsets.append((cursor, cursor + p.size))
        cursor += p.size
    losses = []
    for _epoch in range(config.epochs):
        for x, y in reference_minibatches(dataset.images, dataset.labels, config.batch_size, rng):
            loss = loss_fn.forward(model.forward(x), y)
            grads = reference_backward(model, loss_fn.backward())
            for p, grad, (lo, hi) in zip(params, grads, offsets):
                if config.proximal_mu > 0.0:
                    grad += config.proximal_mu * (
                        p.value - global_parameters[lo:hi].reshape(p.shape)
                    )
                p.value -= config.learning_rate * grad
            losses.append(loss)
    return ClientUpdate(
        client_id=dataset.client_id,
        parameters=get_flat_parameters(model),
        train_loss=float(np.mean(losses)) if losses else 0.0,
    )


@pytest.mark.cohort
@settings(max_examples=40, deadline=None)
@given(spec=stacks, batch=st.integers(1, 9))
def test_writing_gradients_equals_zeroing_then_accumulating(spec, batch):
    shard = make_shard(spec, batch)
    upstream = np.random.default_rng(spec["seed"] + 2).standard_normal((batch, spec["classes"]))
    want_model, got_model = build_stack(spec), pack_parameters(build_stack(spec))
    for p in got_model.parameters():
        p.grad.fill(np.nan)  # scratch: whatever an earlier step left behind

    want_model.forward(shard.images)
    wanted = reference_backward(want_model, upstream)
    got_model.forward(shard.images)
    assert got_model.backward(upstream) is None

    assert len(wanted) == len(list(got_model.parameters()))
    for want, p in zip(wanted, got_model.parameters()):
        np.testing.assert_array_equal(p.grad, want)


@pytest.mark.cohort
@settings(max_examples=40, deadline=None)
@given(spec=stacks, steps=st.integers(1, 3))
def test_the_flat_step_equals_the_per_parameter_step(spec, steps):
    plain, packed = build_stack(spec), pack_parameters(build_stack(spec))
    rng = np.random.default_rng(spec["seed"] + 3)
    optimizer = SGD(packed, lr=0.1)
    for _ in range(steps):
        for p, q in zip(plain.parameters(), packed.parameters()):
            p.grad[...] = rng.standard_normal(p.shape)
            q.grad[...] = p.grad
            p.value -= 0.1 * p.grad
        optimizer.step()
        assert get_flat_parameters(packed).tobytes() == get_flat_parameters(plain).tobytes()


@pytest.mark.cohort
@settings(max_examples=25, deadline=None)
@given(spec=stacks)
def test_flat_access_on_a_packed_model_equals_the_unpacked_path(spec):
    plain, packed = build_stack(spec), pack_parameters(build_stack(spec))
    assert get_flat_parameters(packed).tobytes() == get_flat_parameters(plain).tobytes()
    for p, q in zip(plain.parameters(), packed.parameters()):
        assert q.shape == p.shape and q.value.flags.c_contiguous
        assert np.shares_memory(q.value, packed.packed[0])
        assert np.shares_memory(q.grad, packed.packed[1])

    vector = np.random.default_rng(spec["seed"] + 4).standard_normal(packed.packed[0].size)
    for model in (plain, packed):
        set_flat_parameters(model, vector)
    for p, q in zip(plain.parameters(), packed.parameters()):
        assert q.value.tobytes() == p.value.tobytes()
    read = get_flat_parameters(packed)
    assert read.tobytes() == vector.tobytes() and not np.shares_memory(read, packed.packed[0])
    copied = pickle.loads(pickle.dumps(packed))  # views do not survive: a copy is unpacked
    assert copied.packed is None and packed.packed is not None
    assert get_flat_parameters(copied).tobytes() == vector.tobytes()
    single = vector.astype(np.float32)
    set_flat_parameters(packed, single.reshape(1, -1))  # coerced like the unpacked path
    for bad in (vector[:-1], np.append(vector, 0.0)):
        with pytest.raises(ValueError, match="vector of length"):
            set_flat_parameters(packed, bad)
    assert get_flat_parameters(packed).tobytes() == single.astype(np.float64).tobytes()


@pytest.mark.cohort
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 40),
    batch_size=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    epochs=st.integers(1, 3),
)
def test_one_gather_per_epoch_yields_the_per_batch_gather(rows, batch_size, seed, epochs):
    data = np.random.default_rng(seed)
    images, labels = data.standard_normal((rows, 2, 3)), data.integers(0, 9, rows)
    want_rng, got_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(epochs):
        want = list(reference_minibatches(images, labels, batch_size, want_rng))
        got = list(minibatches(images, labels, batch_size, got_rng))
        assert len(got) == len(want)
        for (gx, gy), (wx, wy) in zip(got, want):
            assert gx.shape == wx.shape and gx.flags.c_contiguous
            assert gx.tobytes() == wx.tobytes() and gy.tobytes() == wy.tobytes()
            assert not np.shares_memory(gx, images) and not np.shares_memory(gy, labels)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.cohort
@settings(max_examples=40, deadline=None)
@given(
    spec=stacks,
    rows=st.integers(1, 23),
    batch_size=st.sampled_from([1, 4, 10]),
    epochs=st.integers(1, 2),
    proximal_mu=st.sampled_from([0.0, 0.1]),
)
def test_local_update_on_a_shared_plane_equals_the_private_unpacked_model(
    spec, rows, batch_size, epochs, proximal_mu
):
    config = LocalTrainingConfig(
        epochs=epochs, batch_size=batch_size, learning_rate=0.1, proximal_mu=proximal_mu
    )
    shards = [make_shard(spec, rows, 0), make_shard({**spec, "seed": spec["seed"] + 9}, rows, 1)]
    global_parameters = get_flat_parameters(build_stack(spec)) * 0.5
    workspace = ModelWorkspace(lambda: build_stack(spec))
    for shard in shards:  # the second client trains on the plane the first one left behind
        client = FLClient(shard, workspace, np.random.default_rng(spec["seed"] + 5))
        want_rng = np.random.default_rng(spec["seed"] + 5)
        want = reference_local_update(build_stack(spec), shard, want_rng, global_parameters, config)
        got = client.local_update(global_parameters, config)
        assert got.parameters.tobytes() == want.parameters.tobytes()
        assert (got.client_id, got.train_loss) == (want.client_id, want.train_loss)
        assert client.rng.bit_generator.state == want_rng.bit_generator.state
    assert workspace._model is not None and workspace._model.packed is not None
