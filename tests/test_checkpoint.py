"""Tests for partial-run checkpointing (`repro.fl.trainer`).

The contract under test is **bit-identical resumption**: a run stopped at
round ``r`` and continued to round ``R`` through
:meth:`~repro.runner.engine.ExperimentEngine.run_partial` must produce
exactly the history — every accuracy, delay, reward map, and extras
diagnostic — of an uninterrupted ``R``-round run, on both backends.  That only holds if the checkpoint blob captures *every* piece of
trainer state a later round reads: model parameters, per-client RNG streams,
the kernel's simulated clock, detection/reward accounting, and FedProx's
straggler-drop selection stream.

Also covered: the checkpoint's validation guards (foreign blobs are rejected
as :class:`~repro.fl.trainer.CheckpointError`, which the engine treats
as a miss), the store-side plumbing (checkpoints ride the ``.npz`` sidecar
and are reclaimed by the existing ``gc`` orphan sweep), and ``keys()``
coherence (it follows ``put``, ``gc`` and foreign writers).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.blockchain.transaction import make_gradient_transaction
from repro.crypto import keystore as keystore_module
from repro.crypto.keystore import derive_key_pair
from repro.crypto.rsa import RSAKeyPair, rsa_sign
from repro.fl.cohort import EXECUTOR_BACKENDS
from repro.fl.trainer import CHECKPOINT_SCHEMA_VERSION, CheckpointError, Trainer
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.store.runstore import RunStore
from repro.store.records import history_to_payload
from repro.systems.registry import get_system
from repro.utils.rng import new_rng

from toy_trainer import ToyTrainer

SMALL = dict(num_clients=6, num_samples=240, num_rounds=6, seed=3)


def small_spec(system: str = "fairbfl", **overrides) -> ScenarioSpec:
    return ScenarioSpec(**{"system": system, "name": "ckpt", **SMALL, **overrides})


def canonical(result) -> str:
    """Byte-comparable rendering of a run (history minus the label)."""
    payload = history_to_payload(result.history)
    payload.pop("label", None)
    return json.dumps(payload, sort_keys=True)


def straight_run(spec: ScenarioSpec):
    """The uninterrupted reference run (no store, no checkpointing)."""
    return ExperimentEngine().run_partial(spec, checkpoint=False)


def _previous_schema_version(blob: bytes) -> bytes:
    """``blob`` re-stamped as written by the previous checkpoint schema."""
    payload = pickle.loads(blob)
    payload["version"] = CHECKPOINT_SCHEMA_VERSION - 1
    return pickle.dumps(payload)


def _names_a_deleted_class(_blob: bytes) -> bytes:
    """A pickle referencing a class that no longer imports (GLOBAL opcode).

    Every schema-3 blob of a FAIR-BFL run with two or more miners pickled the
    round simulator's ``repro.blockchain.network.BroadcastNetwork`` objects.
    """
    return b"\x80\x04crepro.blockchain.network\nBroadcastNetwork\n."


class _OpensAFile:
    """Unpickles as ``open(path, "w")``: creating ``path`` shows the blob ran."""

    def __init__(self, path) -> None:
        self.path = path

    def __reduce__(self):
        return open, (str(self.path), "w")


class TestResumeParity:
    @pytest.mark.parametrize("backend", sorted(EXECUTOR_BACKENDS))
    def test_stop_and_resume_is_bit_identical_per_backend(self, backend, tmp_path):
        spec = small_spec(backend=backend, max_workers=2)
        reference = straight_run(spec)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        engine.run_partial(spec, 3)  # stop at the rung boundary...
        resumed = engine.run_partial(spec, 6, resume_from=(3,))  # ...and continue
        assert canonical(resumed) == canonical(reference)
        # Only the 3 new rounds were computed on the second call.
        assert engine.round_evaluations == 6
        assert engine.runs_computed == 2

    @pytest.mark.parametrize("system", ["fairbfl", "fairbfl-discard", "fedavg"])
    def test_parity_across_checkpointable_systems(self, system, tmp_path):
        spec = small_spec(system)
        reference = straight_run(spec)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        engine.run_partial(spec, 2)
        resumed = engine.run_partial(spec, 6, resume_from=(2,))
        assert canonical(resumed) == canonical(reference)

    def test_fedprox_selection_stream_survives_checkpointing(self, tmp_path):
        # FedProx draws from a private straggler-drop RNG every round; a
        # checkpoint that lost that stream's position would still produce a
        # *plausible* history — just not the uninterrupted one.
        spec = small_spec("fedprox", drop_percent=0.25, seed=11)
        reference = straight_run(spec)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        engine.run_partial(spec, 2)
        engine.run_partial(spec, 4, resume_from=(2,))
        resumed = engine.run_partial(spec, 6, resume_from=(2, 4))
        assert canonical(resumed) == canonical(reference)

    def test_blockchain_simulator_checkpoints_too(self, tmp_path):
        spec = ScenarioSpec(system="blockchain", name="bc", num_clients=5, num_rounds=6, seed=2)
        reference = straight_run(spec)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        engine.run_partial(spec, 3)
        resumed = engine.run_partial(spec, 6, resume_from=(3,))
        assert canonical(resumed) == canonical(reference)

    def test_resume_tries_highest_rung_first(self, tmp_path):
        spec = small_spec()
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        engine.run_partial(spec, 2)
        engine.run_partial(spec, 4, resume_from=(2,))
        assert engine.round_evaluations == 4
        engine.run_partial(spec, 6, resume_from=(2, 4))
        # 2 + 2 + 2 rounds computed in total: the last call resumed from the
        # 4-round checkpoint, not the 2-round one.
        assert engine.round_evaluations == 6

    def test_checkpointless_record_is_a_graceful_miss(self, tmp_path):
        # A plain sweep's record has no checkpoint: resume_from pointing at it
        # must fall back to computing from scratch, bit-identically.
        spec = small_spec()
        store = RunStore(tmp_path)
        engine = ExperimentEngine(store=store, reuse_cached=True)
        prior = spec.with_overrides(num_rounds=3)
        store.put(prior, ExperimentEngine().run_partial(prior, checkpoint=False))
        assert store.get_checkpoint(prior) is None
        resumed = engine.run_partial(spec, 6, resume_from=(3,))
        assert canonical(resumed) == canonical(straight_run(spec))
        assert engine.round_evaluations == 6  # no prefix was reusable

    @pytest.mark.parametrize("doctor", [_previous_schema_version, _names_a_deleted_class])
    def test_stale_checkpoint_is_a_miss_through_the_engine(self, doctor, tmp_path):
        # A sidecar written by older code must cost a recompute, never a crash.
        spec = small_spec()
        prior = spec.with_overrides(num_rounds=3)
        store = RunStore(tmp_path)
        rung = ExperimentEngine(store=store).run_partial(spec, 3)
        store.put(prior, rung, checkpoint=doctor(store.get_checkpoint(prior)))
        engine = ExperimentEngine(store=store, reuse_cached=True)
        resumed = engine.run_partial(spec, 6, resume_from=(3,))
        assert canonical(resumed) == canonical(straight_run(spec))
        assert engine.round_evaluations == 6  # the doctored rung was not reused


class TestCheckpointGuards:
    def _trainer(self, spec: ScenarioSpec):
        system = get_system(spec.system)
        dataset = ExperimentEngine().dataset_for(spec)
        return system.build(spec, dataset).trainer

    def test_foreign_trainer_blob_is_rejected(self):
        fedavg = self._trainer(small_spec("fedavg"))
        fedavg.run(num_rounds=2)
        fairbfl = self._trainer(small_spec("fairbfl"))
        with pytest.raises(CheckpointError, match="written by"):
            fairbfl.restore_state(fedavg.checkpoint_state())

    def test_a_client_checkpoints_its_rng_alone(self):
        # Rewards live on the chain and participation in the history, so a
        # client's state in a checkpoint is its RNG stream and nothing else.
        donor = self._trainer(small_spec())
        donor.run_until(2)
        blob = donor.checkpoint_state()
        rng_states = {cid: c.rng.bit_generator.state for cid, c in donor.clients.items()}
        assert pickle.loads(blob)["clients"] == rng_states
        resumed = self._trainer(small_spec())
        resumed.restore_state(blob)
        assert {cid: c.rng.bit_generator.state for cid, c in resumed.clients.items()} == rng_states

    def test_population_mismatch_is_rejected(self):
        donor = self._trainer(small_spec())
        donor.run(num_rounds=1)
        other = self._trainer(small_spec(num_clients=8))
        with pytest.raises(CheckpointError, match="client"):
            other.restore_state(donor.checkpoint_state())

    def test_run_until_refuses_to_rewind(self):
        trainer = self._trainer(small_spec())
        trainer.run(num_rounds=3)
        with pytest.raises(CheckpointError, match="already"):
            trainer.run_until(2)

    def test_run_until_is_idempotent_at_target(self):
        trainer = self._trainer(small_spec())
        trainer.run_until(3)
        history = trainer.run_until(3)
        assert len(history) == 3

    def test_corrupt_blob_is_rejected(self):
        trainer = self._trainer(small_spec())
        with pytest.raises(CheckpointError):
            trainer.restore_state(b"not a pickle")

    @staticmethod
    def _doctored(blob: bytes, edit) -> bytes:
        payload = pickle.loads(blob)
        edit(payload)
        return pickle.dumps(payload)

    def test_a_blob_missing_an_attribute_is_a_miss(self):
        # Applied as it stood, the blob would resume with the fresh trainer's
        # block count: silently wrong from the next round on.
        donor = self._trainer(small_spec("blockchain"))
        donor.run_until(2)
        blob = self._doctored(
            donor.checkpoint_state(), lambda p: p["attrs"].pop("chain_height")
        )
        fresh = self._trainer(small_spec("blockchain"))
        with pytest.raises(CheckpointError, match="chain_height"):
            fresh.restore_state(blob)
        assert fresh.chain_height == 1 and fresh.rounds_completed() == 0

    def test_a_blob_with_an_unknown_attribute_is_a_miss(self):
        # Planted as it stood, the extra name would outlive the code that
        # deleted it; the trainer must stay as it was built.
        spec = small_spec("fedavg", num_rounds=2)
        donor = self._trainer(spec)
        donor.run_until(1)
        blob = self._doctored(
            donor.checkpoint_state(), lambda p: p["attrs"].update(_retired=new_rng(0, "x"))
        )
        trainer = self._trainer(spec)
        before = set(vars(trainer))
        with pytest.raises(CheckpointError, match=r"unknown ones \['_retired'\]"):
            trainer.restore_state(blob)
        assert set(vars(trainer)) == before and trainer.rounds_completed() == 0
        assert history_to_payload(trainer.run()) == history_to_payload(self._trainer(spec).run())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(clients=list(p["clients"])),
            lambda p: p["clients"].update({0: {"bit_generator": "PCG64"}}),
        ],
        ids=["client_ids_only", "malformed_client_rng_state"],
    )
    def test_a_malformed_client_state_is_refused_before_the_trainer_changes(self, edit):
        spec = small_spec("fedavg", num_rounds=2)
        donor = self._trainer(spec)
        donor.run_until(1)
        blob = self._doctored(donor.checkpoint_state(), edit)
        trainer = self._trainer(spec)
        with pytest.raises(CheckpointError, match="client"):
            trainer.restore_state(blob)
        assert trainer.rounds_completed() == 0
        assert history_to_payload(trainer.run()) == history_to_payload(self._trainer(spec).run())

    @pytest.mark.parametrize("attrs", ["missing", None, ["chain_height"]])
    def test_a_blob_without_an_attribute_dict_is_a_miss(self, attrs, tmp_path):
        def edit(payload):
            if attrs == "missing":
                del payload["attrs"]
            else:
                payload["attrs"] = attrs

        donor = self._trainer(small_spec("blockchain"))
        donor.run_until(2)
        with pytest.raises(CheckpointError, match="lacks trainer attributes"):
            self._trainer(small_spec("blockchain")).restore_state(
                self._doctored(donor.checkpoint_state(), edit)
            )
        # Through the engine the doctored rung costs a recompute, not a crash.
        spec = small_spec("blockchain")
        prior = spec.with_overrides(num_rounds=3)
        store = RunStore(tmp_path)
        rung = ExperimentEngine(store=store).run_partial(spec, 3)
        store.put(prior, rung, checkpoint=self._doctored(store.get_checkpoint(prior), edit))
        engine = ExperimentEngine(store=store, reuse_cached=True)
        resumed = engine.run_partial(spec, 6, resume_from=(3,))
        assert canonical(resumed) == canonical(straight_run(spec))
        assert engine.round_evaluations == 6

    def test_a_blob_that_would_run_code_is_refused(self, tmp_path):
        marker = tmp_path / "ran"
        blob = pickle.dumps({"version": CHECKPOINT_SCHEMA_VERSION, "x": _OpensAFile(marker)})
        trainer = self._trainer(small_spec())
        with pytest.raises(CheckpointError, match=r"refused global \w+\.open"):
            trainer.restore_state(blob)
        assert not marker.exists()
        assert trainer.rounds_completed() == 0
        pickle.loads(blob)["x"].close()  # the same blob, unguarded, does run
        assert marker.exists()

    @pytest.mark.parametrize(
        "module, name",
        [
            ("os", "system"),
            ("repro.fl.trainer", "pickle.loads"),  # a dotted path through an import
            ("repro.fl.trainer", "new_rng"),  # a function imported into a repro module
            ("repro.fl.trainer", "pickle"),  # a module
        ],
    )
    def test_only_classes_defined_in_repro_are_admitted(self, module, name):
        blob = b"\x80\x04c" + f"{module}\n{name}\n".encode() + b"."
        assert pickle.loads(blob) is not None
        with pytest.raises(CheckpointError, match="refused global"):
            self._trainer(small_spec("fedavg")).restore_state(blob)

    def test_engine_rejects_uncheckpointable_systems(self, register_toy_system):
        # A bare Trainer is not a TrainerRun: refused before round 0.
        register_toy_system("toy-bare", ToyTrainer)
        engine = ExperimentEngine()
        with pytest.raises(ScenarioError, match="build\\(\\) must return a TrainerRun") as info:
            engine.run_partial(ScenarioSpec(system="toy-bare", num_rounds=2), 1)
        assert str(info.value).endswith("got ToyTrainer")

    @pytest.mark.ledger
    def test_ledger_survives_stop_and_resume(self):
        donor = self._trainer(small_spec())
        donor.run(num_rounds=2)
        resumed = self._trainer(small_spec())
        resumed.restore_state(donor.checkpoint_state())
        # Key pairs come back whole (CRT material included) and sign the same.
        entities = [f"client-{cid}" for cid in range(donor.dataset.num_clients)]
        entities += donor.miner_ids
        assert len(resumed.keystore) == len(donor.keystore) == len(entities)
        for entity in entities:
            assert resumed.keystore.register(entity) == donor.keystore.register(entity)
        pair = donor.keystore.register("client-0")
        assert resumed.keystore.sign("client-0", b"m") == rsa_sign(
            b"m", (pair.modulus, pair.private_exponent)
        )
        # Transactions come back with the same identity and the same contract.
        ledger = [tx for block in resumed.chain.blocks for tx in block.transactions]
        assert [tx.tx_id for tx in ledger] == [
            tx.tx_id for block in donor.chain.blocks for tx in block.transactions
        ]
        assert resumed.chain.is_valid()
        with pytest.raises(TypeError):
            ledger[-1].metadata["reward"] = 1e9

    @pytest.mark.ledger
    @pytest.mark.parametrize("written_warm", [True, False], ids=["warm-to-cold", "cold-to-warm"])
    def test_checkpoint_ignores_where_key_pairs_came_from(self, written_warm):
        # The blob pickles the keystore's pairs by value, so it must not matter
        # whether the writer or the restorer was handed memoised objects.
        def rendered(trainer) -> str:
            return json.dumps(history_to_payload(trainer.history), sort_keys=True)

        assert CHECKPOINT_SCHEMA_VERSION == 8
        derive_key_pair.cache_clear()
        reference = self._trainer(small_spec())  # leaves the memo warm
        reference.run_until(6)
        if not written_warm:
            derive_key_pair.cache_clear()
        donor = self._trainer(small_spec())  # a cold writer re-warms the memo for the restorer
        donor.run_until(3)
        blob = donor.checkpoint_state()
        if written_warm:
            derive_key_pair.cache_clear()
        resumed = self._trainer(small_spec())
        assert len(resumed.keystore) > 0
        resumed.restore_state(blob)
        resumed.run_until(6)
        assert rendered(resumed) == rendered(reference)

    @pytest.mark.ledger
    def test_a_blob_written_under_seed_keyed_derivation_resumes(self, monkeypatch):
        # Before keys became identities, a pair was derived from the experiment
        # seed as well.  Such a blob carries those pairs by value; the restored
        # trainer keeps signing and verifying with them (block headers
        # included), so it resumes as is.
        spec = small_spec()
        assert spec.seed != 0  # seed 0's keys never changed

        def seed_keyed(key_bits, entity_id):
            return RSAKeyPair.generate(new_rng(spec.seed, "rsa-key", entity_id), bits=key_bits)

        assert CHECKPOINT_SCHEMA_VERSION == 8
        reference = self._trainer(spec)
        reference.run_until(6)
        with monkeypatch.context() as patch:
            patch.setattr(keystore_module, "derive_key_pair", seed_keyed)
            donor = self._trainer(spec)
            donor.run_until(3)
            blob = donor.checkpoint_state()
        old_pair = seed_keyed(256, "client-0")
        assert old_pair != derive_key_pair(256, "client-0")

        resumed = self._trainer(spec)
        resumed.restore_state(blob)
        assert resumed.keystore.register("client-0") == old_pair
        resumed.run_until(6)
        payload = history_to_payload(resumed.history)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            history_to_payload(reference.history), sort_keys=True
        )
        assert all(r["extras"]["rejected_uploads"] == 0 for r in payload["rounds"])
        assert resumed.chain.is_valid()
        upload = make_gradient_transaction(
            "client-0", 6, np.ones(3), keystore=resumed.keystore, client_index=0
        )
        assert upload.verify(resumed.keystore)
        assert resumed.miners[0].receive_upload(upload)

    @pytest.mark.ledger
    def test_a_version_4_blob_is_a_miss(self):
        # Version 4 wrote chains whose headers were unsigned.  Stamped with the
        # current version, such a blob would restore chains that fail their
        # first validation, so its own version must make it a miss.
        assert CHECKPOINT_SCHEMA_VERSION == 8
        donor = self._trainer(small_spec())
        donor.run_until(3)
        payload = pickle.loads(donor.checkpoint_state())
        blocks = {id(b): b for m in payload["attrs"]["miners"] for b in m.chain.blocks[1:]}
        assert blocks
        for block in blocks.values():
            block.header.signature = None
        resumed = self._trainer(small_spec())
        with pytest.raises(CheckpointError, match="version 4"):
            resumed.restore_state(pickle.dumps({**payload, "version": 4}))
        resumed.restore_state(pickle.dumps(payload))  # the same chains, mislabelled
        assert not resumed.chain.is_valid()

    @pytest.mark.ledger
    def test_a_version_5_blob_is_a_miss(self):
        # Version 5 pickled a reward ledger beside the chain and each client's
        # participation and reward tallies next to its RNG state.  Its own
        # version must make it a miss, before any of that is restored.
        assert CHECKPOINT_SCHEMA_VERSION == 8
        donor = self._trainer(small_spec())
        donor.run_until(3)
        payload = pickle.loads(donor.checkpoint_state())
        clients = {
            cid: {"rng": rng_state, "rounds_participated": 3, "total_reward": 0.5}
            for cid, rng_state in payload["clients"].items()
        }
        resumed = self._trainer(small_spec())
        with pytest.raises(CheckpointError, match="version 5"):
            resumed.restore_state(pickle.dumps({**payload, "version": 5, "clients": clients}))
        assert resumed.rounds_completed() == 0

    def test_a_version_6_blob_is_a_miss(self):
        # Version 6 pickled the vanilla chain's replicas, mempool and payload
        # stream, and no height counter: restored, it would resume at height 1.
        assert CHECKPOINT_SCHEMA_VERSION == 8
        spec = ScenarioSpec(system="blockchain", name="bc", num_clients=5, num_rounds=6, seed=2)
        donor = self._trainer(spec)
        donor.run_until(3)
        payload = pickle.loads(donor.checkpoint_state())
        assert payload["attrs"]["chain_height"] > 1
        attrs = {k: v for k, v in payload["attrs"].items() if k != "chain_height"}
        attrs["rng"] = new_rng(spec.seed, "vanilla-blockchain")
        resumed = self._trainer(spec)
        with pytest.raises(CheckpointError, match="version 6"):
            resumed.restore_state(pickle.dumps({**payload, "version": 6, "attrs": attrs}))
        assert resumed.rounds_completed() == 0
        assert resumed.chain_height == 1

    @pytest.mark.ledger
    def test_a_version_7_blob_is_a_miss(self):
        # Version 7 drew each block's winner from a stream of its own, so its
        # FAIR-BFL blob carries that stream and blocks that stream's winners
        # signed.  Its own version makes it a miss; relabelled, its extra
        # attribute still does.
        assert CHECKPOINT_SCHEMA_VERSION == 8
        spec = small_spec()
        donor = self._trainer(spec)
        donor.run_until(3)
        payload = pickle.loads(donor.checkpoint_state())
        attrs = {**payload["attrs"], "_mining_rng": new_rng(spec.seed, "fair-bfl", "mining")}
        resumed = self._trainer(spec)
        with pytest.raises(CheckpointError, match="version 7"):
            resumed.restore_state(pickle.dumps({**payload, "version": 7, "attrs": attrs}))
        with pytest.raises(CheckpointError, match="_mining_rng"):
            resumed.restore_state(pickle.dumps({**payload, "attrs": attrs}))
        assert resumed.rounds_completed() == 0
        assert not hasattr(resumed, "_mining_rng")

    @pytest.mark.ledger
    def test_a_current_version_blob_resumes_byte_identically_onto_a_valid_chain(self):
        spec = small_spec(topology="ring", miners=4, partition="2-3:0,1")
        reference = self._trainer(spec)
        reference.run_until(6)
        donor = self._trainer(spec)
        donor.run_until(3)
        blob = donor.checkpoint_state()
        assert pickle.loads(blob)["version"] == CHECKPOINT_SCHEMA_VERSION == 8
        resumed = self._trainer(spec)
        resumed.restore_state(blob)
        resumed.run_until(6)
        assert json.dumps(history_to_payload(resumed.history), sort_keys=True) == json.dumps(
            history_to_payload(reference.history), sort_keys=True
        )
        assert [b.block_hash for b in resumed.chain.blocks] == [
            b.block_hash for b in reference.chain.blocks
        ]
        for miner in resumed.miners:
            assert miner.chain.keystore is not None
            assert miner.chain.is_valid()
            assert all(b.header.signature is not None for b in miner.chain.blocks[1:])

    def test_mixin_exclusions_documented_state_only(self):
        # The exclusion list is load-bearing: anything listed is rebuilt by
        # system.build(), everything else must pickle.
        assert "dataset" in Trainer.CHECKPOINT_EXCLUDE
        assert "cohort" in Trainer.CHECKPOINT_EXCLUDE
        # The spec is the constructor's input, not state: the blob never pickles it.
        assert "spec" in Trainer.CHECKPOINT_EXCLUDE


class TestStorePlumbing:
    def test_checkpoint_rides_the_npz_sidecar(self, tmp_path):
        spec = small_spec()
        store = RunStore(tmp_path)
        engine = ExperimentEngine(store=store, reuse_cached=True)
        stored = engine.run_partial(spec, 3)
        assert stored is not None
        path = store.path_for(store.key_for(spec.with_overrides(num_rounds=3)))
        assert path.exists() and path.with_suffix(".npz").exists()
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["checkpoint"]["rounds"] == 3
        assert record["checkpoint"]["bytes"] > 0
        blob = store.get_checkpoint(spec.with_overrides(num_rounds=3))
        assert isinstance(blob, bytes) and len(blob) == record["checkpoint"]["bytes"]

    def test_rung_record_is_the_plain_sweep_record(self, tmp_path):
        # Fidelity lives in the existing key semantics: the 3-round rung
        # record answers a plain `num_rounds=3` sweep lookup directly.
        spec = small_spec()
        store = RunStore(tmp_path)
        ExperimentEngine(store=store, reuse_cached=True).run_partial(spec, 3)
        sweep_engine = ExperimentEngine(store=store, reuse_cached=True)
        history = sweep_engine.run(spec.with_overrides(num_rounds=3))
        assert sweep_engine.cache_hits == 1 and sweep_engine.runs_computed == 0
        assert len(history) == 3

    @pytest.mark.store
    def test_gc_reclaims_orphaned_partial_rung_sidecars(self, tmp_path):
        spec = small_spec()
        store = RunStore(tmp_path)
        ExperimentEngine(store=store, reuse_cached=True).run_partial(spec, 3)
        key = store.key_for(spec.with_overrides(num_rounds=3))
        json_path = store.path_for(key)
        json_path.unlink()  # simulate a kill between sidecar and record write
        assert json_path.with_suffix(".npz").exists()
        removed = store.gc()
        assert key in removed
        assert not json_path.with_suffix(".npz").exists()

    def test_gc_reclaims_stale_partial_rung_records(self, tmp_path):
        spec = small_spec()
        store = RunStore(tmp_path)
        ExperimentEngine(store=store, reuse_cached=True).run_partial(spec, 3)
        key = store.key_for(spec.with_overrides(num_rounds=3))
        path = store.path_for(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["spec"]["seed"] = 999  # content no longer matches its address
        path.write_text(json.dumps(record), encoding="utf-8")
        removed = store.gc()
        assert key in removed
        assert not path.exists() and not path.with_suffix(".npz").exists()


class TestKeyIndex:
    def test_index_built_on_first_use_and_updated_by_put(self, tmp_path):
        spec = ScenarioSpec(system="blockchain", name="idx", num_clients=5, num_rounds=2)
        store = RunStore(tmp_path)
        assert store.keys() == ()
        result = ExperimentEngine().run_partial(spec, checkpoint=False)
        store.put(spec, result)
        assert store.keys() == (store.key_for(spec),)
        assert store.query(system="blockchain")[0].key == store.key_for(spec)

    def test_gc_invalidates_index(self, tmp_path):
        spec = ScenarioSpec(system="blockchain", name="idx", num_clients=5, num_rounds=2)
        store = RunStore(tmp_path)
        store.put(spec, ExperimentEngine().run_partial(spec, checkpoint=False))
        assert len(store.keys()) == 1
        path = store.path_for(store.key_for(spec))
        path.write_text("corrupt", encoding="utf-8")
        assert store.gc()
        assert store.keys() == ()

    def test_index_picks_up_external_writers(self, tmp_path):
        spec = ScenarioSpec(system="blockchain", name="idx", num_clients=5, num_rounds=2)
        reader = RunStore(tmp_path)
        assert reader.keys() == ()
        writer = RunStore(tmp_path)  # a "different process"
        writer.put(spec, ExperimentEngine().run_partial(spec, checkpoint=False))
        # keys() scans the shards, so the foreign write needs no refresh.
        assert reader.keys() == (reader.key_for(spec),)
        assert reader.query(system="blockchain")[0].key == reader.key_for(spec)
