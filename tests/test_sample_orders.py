"""One sample-order draw for Procedure I, on every backend and process count.

A client's only per-round randomness is the order its shard is visited in,
one permutation of ``range(|D_i|)`` per local epoch.  ``FLClient.draw_orders``
is the one place that draws it, and ``FLClient.local_update`` trains on the
orders it is given and draws nothing.  The coordinator draws them for the
in-process loop, for a sharded serial round and for a cohort chunk; a helper
receives orders, never a stream.  So:

* ``local_update(g, cfg, c.draw_orders(E))`` consumes exactly E permutations;
* an epoch visits every sample once, in its order, in batches of ``B`` with
  the short last batch kept;
* a client's stream ends a round in the same state, and its update has the
  same bytes, in-process, sharded over W ∈ {2, 3} and on the cohort engine.
"""

from __future__ import annotations

from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import ClientDataset
from repro.fl import cohort as fl_cohort
from repro.fl.client import FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.cohort import CohortTrainer
from repro.nn.models import ModelFactory
from repro.nn.module import Sequential
from repro.nn.parameters import get_flat_parameters

pytestmark = pytest.mark.cohort

FEATURES, CLASSES = 4, 3
FACTORY = ModelFactory("logreg", FEATURES, CLASSES, seed=11, label="orders")

shapes = dict(
    num_samples=st.integers(1, 30), batch_size=st.integers(1, 12), epochs=st.integers(1, 4)
)


def _population(num_samples: int, seed: int, size: int = 1) -> dict[int, FLClient]:
    """``size`` clients with ``num_samples``-row shards whose first feature is the row index."""
    data = np.random.default_rng(seed)
    workspace = ModelWorkspace(FACTORY)
    clients = {}
    for cid in range(size):
        images = data.standard_normal((num_samples, FEATURES))
        images[:, 0] = np.arange(num_samples)
        shard = ClientDataset(
            cid,
            images,
            data.integers(0, CLASSES, num_samples),
            data.standard_normal((2, FEATURES)),
            data.integers(0, CLASSES, 2),
        )
        clients[cid] = FLClient(shard, workspace, np.random.default_rng([seed, cid]))
    return clients


def _start() -> np.ndarray:
    return get_flat_parameters(FACTORY()) * 0.5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), **shapes)
def test_a_round_consumes_exactly_one_permutation_per_epoch(
    seed, num_samples, batch_size, epochs
):
    client = _population(num_samples, seed)[0]
    reference = np.random.default_rng([seed, 0])
    config = LocalTrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1)

    orders = client.draw_orders(epochs)
    assert len(orders) == epochs
    for order in orders:
        np.testing.assert_array_equal(order, reference.permutation(num_samples))
    drawn = client.rng.bit_generator.state
    client.local_update(_start(), config, orders)
    assert client.rng.bit_generator.state == drawn == reference.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), **shapes)
def test_each_epoch_visits_every_sample_once_and_keeps_the_short_batch(
    seed, num_samples, batch_size, epochs
):
    client = _population(num_samples, seed)[0]
    config = LocalTrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1)
    orders = client.draw_orders(epochs)
    batches = []
    forward = Sequential.forward

    def record(model, x):
        batches.append(x[:, 0].copy())
        return forward(model, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sequential, "forward", record)
        client.local_update(_start(), config, orders)

    full, short = divmod(num_samples, batch_size)
    sizes = [batch_size] * full + ([short] if short else [])
    assert [len(batch) for batch in batches] == sizes * epochs
    per_epoch = len(sizes)
    for epoch, order in enumerate(orders):
        visited = np.concatenate(batches[epoch * per_epoch : (epoch + 1) * per_epoch])
        np.testing.assert_array_equal(visited, order)  # the row index is feature 0
        np.testing.assert_array_equal(np.sort(visited), np.arange(num_samples))


def _round(run: str, clients: dict[int, FLClient], config: LocalTrainingConfig) -> list:
    """One Procedure-I round of all ``clients`` on ``run``'s backend and process count."""
    selected = list(clients)[::-1]
    trainer = CohortTrainer(max_workers={"in-process": 1, "W2": 2, "W3": 3, "cohort": 2}[run])
    with pytest.MonkeyPatch.context() as patch, closing(trainer):
        if run == "cohort":
            patch.setattr(fl_cohort, "GATHER_ROWS", 1)  # one client a part: a multi-part chunk
            updates = trainer.run_local_updates(clients, selected, _start(), config)
        else:
            patch.setattr(fl_cohort, "SHARD_WORK", 0)  # every round is worth a fork
            updates = trainer.shard_local_updates(clients, selected, _start(), config, False)
        assert (trainer._helpers is None) == (run == "in-process")  # helpers trained a share
        return updates


@pytest.mark.parametrize("run", ["W2", "W3", "cohort"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), **shapes)
def test_a_client_ends_a_round_in_one_stream_state_on_every_backend(
    run, seed, num_samples, batch_size, epochs
):
    config = LocalTrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1)
    reference = _population(num_samples, seed, size=5)
    want = _round("in-process", reference, config)
    clients = _population(num_samples, seed, size=5)
    got = _round(run, clients, config)

    assert [u.client_id for u in got] == [u.client_id for u in want]
    for update, expected in zip(got, want):
        assert update.parameters.tobytes() == expected.parameters.tobytes()
        assert update.train_loss == expected.train_loss
    for cid, client in clients.items():
        assert client.rng.bit_generator.state == reference[cid].rng.bit_generator.state
