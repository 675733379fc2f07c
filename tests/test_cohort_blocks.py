"""A cohort chunk trains part by part, with the serial path's bytes.

``CohortTrainer._train_chunk`` trains ``GATHER_ROWS // rows-per-client``
clients at a time: each part gathers only its own mini-batch rows, steps its
rows of the chunk's ``(chunk, P)`` parameter matrix, and uses a ``grads``
scratch one part wide.  A client's bytes do not depend on the part
it trains in, so every update must equal ``FLClient.local_update`` run alone —
whatever the width: a last part that is cut short, a chunk narrower than one
part, one client at a time — and whatever process trains it: with
``max_workers`` W > 1 the coordinator trains the first of W row groups and
forked helpers the others, into a shared parameter buffer that a kept block
(or row view) must never see overwritten.  A helper pool must leave no child
behind after ``close()``, and a helper that dies must fail the round, not
hang it.

``TestRoundMemory`` bounds the tracemalloc peak of one streaming round at the
``cohort_population`` shape (512-client chunks of ``logreg``), plus the bytes
the shared parameter buffers have had written (tracemalloc cannot see the
mapping), by 2.0× one chunk's ``(512, P)`` parameter matrix.  Whole-chunk
operands (the gathered mini-batch, the validation stack of a scoring pass
since deleted, a full-width ``grads``) plus a kept previous block read 5.99×
on the full workload round.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import ClientDataset, build_federated_dataset
from repro.fl import cohort as fl_cohort
from repro.fl.client import FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.cohort import DEFAULT_MAX_COHORT_SIZE, CohortTrainer
from repro.nn.cohort import CohortModel
from repro.nn.models import ModelFactory
from repro.nn.parameters import get_flat_parameters
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.systems import get_system
from repro.utils.rng import new_rng

pytestmark = pytest.mark.cohort

MiB = 2**20


def _helpers_alive() -> list:
    """This process's live cohort helpers (children other tests start are not counted)."""
    return [p for p in multiprocessing.active_children() if p.name == "repro-cohort-helper"]


def _population(dataset, *, private: bool, model_name: str) -> dict[int, FLClient]:
    """Fresh clients (fresh RNG streams) over ``dataset``; ``private`` copies each shard."""
    workspace = ModelWorkspace(
        ModelFactory(model_name, 784, 10, seed=7, label="blocks", hidden_sizes=(6,))
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
        rng = new_rng(7, "blocks", shard.client_id)
        clients[shard.client_id] = FLClient(shard, workspace, rng)
    return clients


def _parts_equal_serial(monkeypatch, *, gather_rows, chunk, config, distinct, private,
                        model_name="logreg", workers=1):
    """Train 9 clients part by part and serially; return each coordinator forward's client count.

    With ``workers`` > 1 the helpers' forwards run in other processes, so the
    counts cover the coordinator's row groups only.
    """
    dataset = build_federated_dataset(
        num_clients=9, num_samples=360, scheme="iid", seed=7, distinct_shards=distinct
    )
    cohort = _population(dataset, private=private, model_name=model_name)
    serial = _population(dataset, private=private, model_name=model_name)
    selected = [shard.client_id for shard in dataset.clients][::-1]
    start = new_rng(7, "global").standard_normal(get_flat_parameters(cohort[0].model).size)
    start *= 0.01

    widths = []
    forward = CohortModel.forward
    monkeypatch.setattr(fl_cohort, "GATHER_ROWS", gather_rows)
    monkeypatch.setattr(
        CohortModel,
        "forward",
        lambda self, params, x: widths.append(x.shape[:2]) or forward(self, params, x),
    )
    trainer = CohortTrainer(max_cohort_size=chunk, max_workers=workers)
    try:
        updates = trainer.run_local_updates(cohort, selected, start, config)
    finally:
        trainer.close()
    monkeypatch.undo()
    assert _helpers_alive() == []

    assert [u.client_id for u in updates] == selected
    for update in updates:
        client = serial[update.client_id]
        want = client.local_update(start, config, client.draw_orders(config.epochs))
        assert update.parameters.tobytes() == want.parameters.tobytes()
        assert update.train_loss == want.train_loss
        assert cohort[update.client_id].rng.bit_generator.state == (
            serial[update.client_id].rng.bit_generator.state
        )
    # The memory contract: no operand gathers more than GATHER_ROWS rows,
    # unless one client's rows alone exceed it.
    assert all(clients * rows <= max(gather_rows, rows) for clients, rows in widths), widths
    return [clients for clients, _ in widths]


@settings(max_examples=20, deadline=None)
@given(
    gather_rows=st.sampled_from([1, 40, 64, 100, 10**6]),
    chunk=st.sampled_from([1, 4, 9]),
    batch_size=st.sampled_from([5, 7, 64]),
    epochs=st.integers(1, 2),
    proximal_mu=st.sampled_from([0.0, 0.1]),
    distinct=st.sampled_from([0, 3]),
    private=st.booleans(),
    model_name=st.sampled_from(["logreg", "mlp"]),
    workers=st.sampled_from([1, 2, 3]),
)
def test_chunk_trained_in_parts_equals_serial_local_update(
    gather_rows, chunk, batch_size, epochs, proximal_mu, distinct, private, model_name, workers,
):
    config = LocalTrainingConfig(
        epochs=epochs, batch_size=batch_size, learning_rate=0.05, proximal_mu=proximal_mu
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        _parts_equal_serial(
            monkeypatch, gather_rows=gather_rows, chunk=chunk, config=config,
            distinct=distinct, private=private, model_name=model_name, workers=workers,
        )


# Shards here hold 82 training rows, so with batch_size=25 (a short last batch
# of 7) a client gathers 25 rows a step: GATHER_ROWS=75 trains 3 clients at a time.
SHORT_BATCH = LocalTrainingConfig(epochs=2, batch_size=25, learning_rate=0.05, proximal_mu=0.1)


@pytest.mark.parametrize("private", [False, True])
@pytest.mark.parametrize(
    "gather_rows, chunk, parts",
    [
        (75, 9, [3, 3, 3]),  # the width divides the chunk
        (75, 7, [3, 3, 1, 2]),  # a short last part, then a short last chunk
        (75, 2, [2, 2, 2, 2, 1]),  # chunks narrower than one part
        (1, 9, [1] * 9),  # a one-row budget: one client at a time
        (10**6, 9, [9]),  # the whole chunk at once
    ],
)
def test_parts_tile_the_chunk(monkeypatch, private, gather_rows, chunk, parts):
    widths = _parts_equal_serial(
        monkeypatch, gather_rows=gather_rows, chunk=chunk, config=SHORT_BATCH, distinct=3,
        private=private,
    )
    per_part = 2 * 4  # 2 epochs x ceil(82 / 25) training forwards, and nothing else
    assert widths[::per_part] == parts
    assert len(widths) == per_part * len(parts)


@pytest.mark.parametrize("private", [False, True])
@pytest.mark.parametrize(
    "gather_rows, chunk, workers, coordinator_parts",
    [
        (75, 9, 2, [3, 3]),  # 3 parts: the coordinator trains 2, the helper 1
        (75, 9, 3, [3]),  # one part per process
        (125, 9, 3, [5]),  # 2 parts of 5 and 4 over 3 processes: a helper gets none
        (75, 7, 2, [3, 3, 2]),  # parts of 3, 3, 1; then a one-part chunk stays in-process
        (1, 9, 3, [1, 1, 1]),  # one client a part, 3 parts a process
        (10**6, 9, 3, [9]),  # one part: no helper is used
    ],
)
def test_sharded_parts_equal_serial(monkeypatch, private, gather_rows, chunk, workers,
                                    coordinator_parts):
    widths = _parts_equal_serial(
        monkeypatch, gather_rows=gather_rows, chunk=chunk, config=SHORT_BATCH, distinct=3,
        private=private, workers=workers,
    )
    per_part = 2 * 4
    assert widths[::per_part] == coordinator_parts
    assert len(widths) == per_part * len(coordinator_parts)


# ---------------------------------------------------------------------------
# Kept blocks, helper lifetime and failure
# ---------------------------------------------------------------------------

def _sharded_population(monkeypatch):
    """9 private clients in 3 chunks of 3, each chunk 3 one-client parts."""
    dataset = build_federated_dataset(num_clients=9, num_samples=360, scheme="iid", seed=7)
    cohort = _population(dataset, private=True, model_name="logreg")
    serial = _population(dataset, private=True, model_name="logreg")
    start = new_rng(7, "global").standard_normal(get_flat_parameters(cohort[0].model).size)
    start *= 0.01
    want = {
        cid: client.local_update(start, SHORT_BATCH, client.draw_orders(SHORT_BATCH.epochs))
        for cid, client in serial.items()
    }
    monkeypatch.setattr(fl_cohort, "GATHER_ROWS", 25)  # 25 rows a client: one client a part
    return cohort, start, want


def _rows_equal(parameters, client_ids, want):
    for row, cid in zip(parameters, client_ids):
        assert row.tobytes() == want[cid].parameters.tobytes()


@pytest.mark.parametrize("keep", ["previous block", "one row view", "every block"])
def test_a_kept_block_is_never_overwritten(monkeypatch, keep):
    """The chunk after a kept block trains into the other shared buffer, and the
    one after two kept blocks into a private array on the coordinator alone."""
    clients, start, want = _sharded_population(monkeypatch)
    trainer = CohortTrainer(max_cohort_size=3, max_workers=2)
    try:
        stream = trainer.iter_update_blocks(clients, list(clients), start, SHORT_BATCH)
        if keep == "every block":
            blocks = list(stream)
            for block in blocks:
                _rows_equal(block.parameters, block.client_ids, want)
            # Two blocks hold the two buffers; the third trained privately.
            assert sum(not isinstance(b.parameters.base, np.ndarray) for b in blocks) == 1
        else:
            kept = None
            for block in stream:
                if kept is not None:  # the next chunk has trained: the kept rows still hold
                    _rows_equal(*kept, want)
                if keep == "previous block":
                    kept = (block.parameters, block.client_ids)
                else:
                    kept = (block.parameters[1:2], block.client_ids[1:2])
                del block
            _rows_equal(*kept, want)
        assert trainer.shared_bytes > 0  # the helpers did train into the buffers
    finally:
        trainer.close()
    assert _helpers_alive() == []


def _fedavg_cohort_trainer(seed: int = 0):
    spec = ScenarioSpec(
        system="fedavg", backend="cohort", max_workers=2, num_clients=12, num_samples=480,
        participation=1.0, model_name="logreg", epochs=1, batch_size=16, num_rounds=2,
        seed=seed,
    ).validate()
    return spec, get_system("fedavg").build(spec, ExperimentEngine().dataset_for(spec)).trainer


def test_close_reaps_every_helper(monkeypatch):
    monkeypatch.setattr(fl_cohort, "GATHER_ROWS", 1)  # one client a part: every chunk shards
    _, trainer = _fedavg_cohort_trainer()
    trainer.run_round(0)
    assert len(_helpers_alive()) == 1
    trainer.close()
    assert _helpers_alive() == []
    trainer.run_round(1)  # a closed cohort engine forks afresh on demand
    trainer.close()
    assert _helpers_alive() == []


def test_a_helper_killed_mid_round_fails_the_round_promptly(monkeypatch):
    monkeypatch.setattr(fl_cohort, "GATHER_ROWS", 1)
    _, trainer = _fedavg_cohort_trainer()
    coordinator, train_rows = os.getpid(), fl_cohort._train_rows

    def kill_helpers_then_train(*args, **kwargs):
        if os.getpid() == coordinator:  # the helpers are holding their tasks by now
            for helper in _helpers_alive():
                os.kill(helper.pid, signal.SIGKILL)
        return train_rows(*args, **kwargs)

    trainer.run_round(0)  # fork the helpers before the patch, so they train for real
    monkeypatch.setattr(fl_cohort, "_train_rows", kill_helpers_then_train)
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="helper process died"):
            trainer.run_round(1)
    finally:
        trainer.close()
    assert time.monotonic() - started < 5.0
    assert _helpers_alive() == []


def test_engine_runs_leave_no_helper_behind(monkeypatch):
    monkeypatch.setattr(fl_cohort, "GATHER_ROWS", 1)
    pools = []
    init = fl_cohort._Helpers.__init__

    def counting_init(self, *args):
        pools.append(self)
        init(self, *args)

    monkeypatch.setattr(fl_cohort._Helpers, "__init__", counting_init)
    engine = ExperimentEngine()
    for seed in range(20):
        spec = ScenarioSpec(
            system="fedavg", backend="cohort", max_workers=2, num_clients=6, num_samples=240,
            scheme="iid", participation=1.0, model_name="logreg", epochs=1, batch_size=16,
            num_rounds=1, seed=seed,
        )
        engine.run(spec)
        assert _helpers_alive() == []
    assert len(pools) == 20  # every run did fork its helpers


# ---------------------------------------------------------------------------
# One streaming round's memory
# ---------------------------------------------------------------------------

class TestRoundMemory:
    """Deterministic round memory bound (numpy reports its buffers to tracemalloc)."""

    def test_streaming_round_peak_is_bounded_by_one_chunk(self):
        # cohort_population's shards and model at 1 024 clients, which the
        # shard shapes still split into three chunks (496, 368, 160): the
        # streaming fold is entered directly, below STREAM_THRESHOLD.
        spec = ScenarioSpec(
            system="fedavg", backend="cohort", max_workers=2,
            num_clients=2 * DEFAULT_MAX_COHORT_SIZE,
            num_samples=2048, distinct_shards=64, participation=1.0, scheme="shard",
            model_name="logreg", epochs=1, batch_size=32, num_rounds=1, seed=0,
        ).validate()
        trainer = get_system("fedavg").build(spec, ExperimentEngine().dataset_for(spec)).trainer
        try:
            selected = list(range(spec.num_clients))
            chunk_bytes = DEFAULT_MAX_COHORT_SIZE * trainer.server.global_parameters.nbytes
            tracemalloc.start()
            try:
                trainer._run_round_streaming(0, selected, trainer._local_config())
                _, traced = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # tracemalloc cannot see the shared parameter mapping the helper
            # writes: count every byte of it a chunk has written.
            shared = trainer.cohort.shared_bytes
        finally:
            trainer.close()
        peak = traced + shared
        print(
            f"cohort_population-shaped streaming round on 2 processes: peak "
            f"{traced / MiB:.1f} MiB traced + {shared / MiB:.1f} MiB shared, "
            f"one chunk's parameters {chunk_bytes / MiB:.1f} MiB ({peak / chunk_bytes:.2f}x)"
        )
        assert trainer.history.rounds[-1].extras["cohort_stream"]["blocks"] >= 2
        assert shared > 0  # the chunks did train into the shared buffer
        # Reads 1.49x.  Gathering the whole chunk at once reads 4.75x, and
        # keeping the previous block through the next chunk's training 2.20x.
        assert peak <= 2.0 * chunk_bytes
