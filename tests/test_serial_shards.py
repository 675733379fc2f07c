"""A serial round sharded over the helper pool, with the in-process bytes.

``CohortTrainer.shard_local_updates`` splits a ``serial`` round's clients
into W contiguous groups once its work reaches ``SHARD_WORK``: the coordinator
draws every client's orders, runs the first group with
``FLClient.local_update`` and hands the others, with their orders, to the
cohort engine's forked helpers.  A sharded run must equal the in-process run byte for byte — history
and every client's stream after every round — whatever W, whether W divides
the selection, and whatever the system, topology or round mode.  A
checkpoint does not know which W wrote it, the helpers are reaped on
``close()``, a dead helper fails its round without hanging it, and a round
below the threshold forks nothing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.blockchain.miner import Miner
from repro.blockchain.transaction import TransactionType, _digest_vector
from repro.fl import cohort as fl_cohort
from repro.fl.client import FLClient
from repro.fl.cohort import CohortTrainer
from repro.fl.trainer import CHECKPOINT_SCHEMA_VERSION
from repro.nn.parameters import get_flat_parameters
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.store.records import history_to_payload
from repro.systems import get_system

pytestmark = pytest.mark.cohort

#: 11 clients, all selected: neither W = 2 nor W = 3 divides the round.
SMALL = dict(
    num_clients=11, num_samples=440, participation=1.0, model_name="logreg", epochs=1,
    batch_size=16, num_rounds=3, seed=5,
)

RUNS = {
    "fairbfl-global": dict(system="fairbfl", topology="global"),
    "discard-ring-partition-churn-attacks": dict(
        system="fairbfl-discard", topology="ring", miners=4, partition="1-1:0,1",
        churn="1:-3;2:+3", attacks=True,
    ),
    "fedavg": dict(system="fedavg"),
    "fedprox-mu": dict(system="fedprox", proximal_mu=0.1),
    "semi_sync": dict(system="fairbfl", round_mode="semi_sync"),
    "async": dict(system="fairbfl", round_mode="async"),
}


def _helpers_alive() -> list:
    """This process's live cohort helpers (children other tests start are not counted)."""
    return [p for p in multiprocessing.active_children() if p.name == "repro-cohort-helper"]


def _trainer(workers, **fields):
    spec = ScenarioSpec(**{**SMALL, **fields, "max_workers": workers})
    return get_system(spec.system).build(spec, ExperimentEngine().dataset_for(spec)).trainer


def _digest(trainer) -> str:
    payload = history_to_payload(trainer.history)
    return json.dumps(payload, sort_keys=True)


def _rounds(trainer, rounds: int) -> list[tuple[str, dict]]:
    """Run ``rounds`` rounds; after each, the history and every client's stream state."""
    seen = []
    with trainer:
        for target in range(1, rounds + 1):
            trainer.run_until(target)
            states = {cid: c.rng.bit_generator.state for cid, c in trainer.clients.items()}
            seen.append((_digest(trainer), states))
    return seen


@pytest.fixture
def shard_every_round(monkeypatch):
    """Every round is worth a fork, however small."""
    monkeypatch.setattr(fl_cohort, "SHARD_WORK", 0)


class TestParity:
    @pytest.mark.parametrize("workers", [2, 3, None], ids=["W2", "W3", "default"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_sharded_rounds_equal_in_process_rounds(self, shard_every_round, run, workers):
        reference = _rounds(_trainer(1, **RUNS[run]), SMALL["num_rounds"])
        sharded = _trainer(workers, **RUNS[run])
        sharded.run_until(1)
        forked = len(_helpers_alive())
        assert _rounds(sharded, SMALL["num_rounds"]) == reference
        # W processes are the coordinator and W - 1 helpers; None resolves like
        # the cohort engine's default (2 on a 2-CPU box with one BLAS thread).
        assert sharded._pool.max_workers == CohortTrainer(max_workers=workers).max_workers
        assert forked == sharded._pool.max_workers - 1
        assert _helpers_alive() == []

    def test_a_selection_larger_than_a_buffer_goes_in_chunks(self, shard_every_round):
        reference = _rounds(_trainer(1, system="fedavg"), 2)
        sharded = _trainer(3, system="fedavg")
        sharded._pool.max_cohort_size = 4  # 11 clients: chunks of 4, 4 and 3
        assert _rounds(sharded, 2) == reference


@pytest.mark.ledger
class TestUploadDigests:
    """A sharded round hashes each upload where it was trained, to the same bytes."""

    @staticmethod
    def _uploads(workers, run) -> list:
        """Run ``run``; return the digest each update left Procedure I with."""
        trainer = _trainer(workers, **RUNS[run])
        trained, local_updates = [], trainer.local_updates

        def keep_digests(*args):
            updates = local_updates(*args)
            trained.extend(update.digest for update in updates)
            return updates

        trainer.local_updates = keep_digests
        with trainer:
            trainer.run_until(SMALL["num_rounds"])
        return trained

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_every_upload_digest_is_its_payloads(self, shard_every_round, monkeypatch, run):
        received, receive = [], Miner.receive_upload

        def check_upload(miner, tx):
            if tx.tx_type is TransactionType.GRADIENT_UPLOAD:
                assert tx.payload_digest == _digest_vector(tx.payload)
                received.append((tx.round_index, tx.sender, tx.payload_digest))
            return receive(miner, tx)

        monkeypatch.setattr(Miner, "receive_upload", check_upload)
        in_process = self._uploads(1, run)
        reference, received[:] = list(received), []
        sharded = self._uploads(2, run)
        assert received == reference
        assert not any(in_process)
        # FAIR-BFL uploads every update, so its sharded rounds hash them where
        # they were trained; FedAvg and FedProx upload nothing and hash nothing.
        uploads = RUNS[run]["system"].startswith("fairbfl")
        assert bool(reference) == uploads
        assert sharded and all((digest is not None) == uploads for digest in sharded)


class TestCheckpoint:
    @pytest.mark.parametrize("writer, reader", [(2, 1), (1, 2)])
    def test_a_checkpoint_resumes_under_the_other_worker_count(
        self, shard_every_round, writer, reader
    ):
        assert CHECKPOINT_SCHEMA_VERSION == 8
        reference = _trainer(1, system="fairbfl")
        with reference:
            reference.run_until(4)
        first = _trainer(writer, system="fairbfl")
        with first:
            first.run_until(2)
            blob = first.checkpoint_state()
        resumed = _trainer(reader, system="fairbfl")
        with resumed:
            resumed.restore_state(blob)
            resumed.run_until(4)
        assert _digest(resumed) == _digest(reference)
        assert _helpers_alive() == []


class TestLifecycle:
    def test_close_and_with_reap_every_helper(self, shard_every_round):
        trainer = _trainer(2, system="fedavg")
        trainer.run_round(0)
        assert len(_helpers_alive()) == 1
        trainer.close()
        assert _helpers_alive() == []
        with trainer:
            trainer.run_round(1)  # a closed pool forks afresh on demand
            assert len(_helpers_alive()) == 1
        assert _helpers_alive() == []

    def test_a_killed_helper_fails_the_round_and_the_next_round_trains(
        self, shard_every_round, monkeypatch
    ):
        trainer = _trainer(2, system="fedavg")
        coordinator, local_update = os.getpid(), FLClient.local_update
        armed = []

        def slow_helpers(self, *args, **kwargs):
            # A helper's group takes ~0.1 s, so its answer cannot be in the
            # pipe before the coordinator's first client kills it.
            if os.getpid() != coordinator:
                time.sleep(0.02)
            elif armed:  # the helper is holding its task by now
                for helper in _helpers_alive():
                    os.kill(helper.pid, signal.SIGKILL)
            return local_update(self, *args, **kwargs)

        monkeypatch.setattr(FLClient, "local_update", slow_helpers)
        with trainer:
            trainer.run_round(0)  # the helper forks here and trains for real
            armed.append(True)
            with pytest.raises(RuntimeError, match="helper process died"):
                trainer.run_round(1)
            assert _helpers_alive() == []
            monkeypatch.undo()
            monkeypatch.setattr(fl_cohort, "SHARD_WORK", 0)
            record = trainer.run_round(1)
            assert record.participants == list(range(SMALL["num_clients"]))
            assert len(_helpers_alive()) == 1
        assert _helpers_alive() == []

    def test_a_round_below_the_threshold_forks_nothing(self):
        trainer = _trainer(2, system="fairbfl")
        selected, config = list(trainer.clients), trainer.spec.local_config()
        parameters = get_flat_parameters(trainer._workspace.model()).size
        work = sum(trainer.clients[c].num_samples for c in selected) * config.epochs * parameters
        assert work < fl_cohort.SHARD_WORK
        with trainer:
            trainer.run_until(2)
            assert trainer._pool._helpers is None
            assert _helpers_alive() == []
