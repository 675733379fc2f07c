"""Tests for the five Algorithm-1 procedures as standalone composable functions."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.miner import Miner
from repro.blockchain.transaction import TransactionType, make_gradient_transaction
from repro.core.procedures import (
    RoundContext,
    apply_round_mode,
    procedure_exchange,
    procedure_global_update,
    procedure_local_update,
    procedure_mining,
    procedure_upload,
)
from repro.crypto.keystore import KeyStore
from repro.fl.client import FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.robust import make_defense
from repro.incentive.clustering import DBSCAN
from repro.incentive.strategies import DiscardStrategy, KeepAllStrategy
from repro.nn.models import LogisticRegressionModel
from repro.nn.parameters import get_flat_parameters
from repro.utils.rng import new_rng


@pytest.fixture()
def setup(tiny_federated):
    """Clients, miners, key store, and a starting global parameter vector."""
    keystore = KeyStore(key_bits=128)
    workspace = ModelWorkspace(lambda: LogisticRegressionModel(784, 10, new_rng(0, "proc-model")))
    clients = {}
    for shard in tiny_federated.clients:
        keystore.register(f"client-{shard.client_id}")
        clients[shard.client_id] = FLClient(
            shard, workspace, new_rng(0, "proc-client", shard.client_id)
        )
    miners = []
    genesis = Block.genesis()
    for k in range(2):
        keystore.register(f"miner-{k}")
        chain = Blockchain(enforce_pow=False)
        chain.add_genesis(genesis)
        miners.append(Miner(f"miner-{k}", chain, keystore=keystore))
    global_params = get_flat_parameters(clients[0].model)
    return clients, miners, keystore, global_params


def _context(global_params, selected):
    return RoundContext(round_index=0, global_parameters=global_params, selected_clients=selected)


LOCAL_CFG = LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05)


def serial_updates(clients):
    """``Trainer.local_updates`` on the serial backend, over a bare client map."""
    return lambda selected, global_params, config: [
        clients[cid].local_update(global_params, config) for cid in selected
    ]


class TestProcedureLocalUpdate:
    def test_produces_one_update_per_selected_client(self, setup):
        clients, _, _, global_params = setup
        ctx = _context(global_params, [0, 2, 4])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        assert [u.client_id for u in ctx.updates] == [0, 2, 4]
        for u in ctx.updates:
            assert u.parameters.shape == global_params.shape
            assert not np.allclose(u.parameters, global_params)


class TestProcedureUpload:
    def test_signed_uploads_accepted_and_assigned(self, setup):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, [0, 1, 2, 3])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        procedure_upload(ctx, miners, keystore, new_rng(0, "upload"))
        assert ctx.rejected_uploads == 0
        assert sum(len(m.gradient_set) for m in miners) == 4
        assert set(ctx.client_to_miner.keys()) == {0, 1, 2, 3}
        assert all(tx.tx_type is TransactionType.GRADIENT_UPLOAD for tx in ctx.transactions)

    def test_unsigned_uploads_rejected_when_verification_on(self, setup):
        clients, miners, _, global_params = setup
        ctx = _context(global_params, [0, 1])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        # Passing no keystore leaves the transactions unsigned; miners verify and reject.
        procedure_upload(ctx, miners, None, new_rng(0, "upload"))
        assert ctx.rejected_uploads == 2
        assert sum(len(m.gradient_set) for m in miners) == 0


class TestProcedureExchange:
    def test_all_miners_converge_to_same_set(self, setup):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, [0, 1, 2, 3, 4])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        procedure_upload(ctx, miners, keystore, new_rng(0, "upload"))
        procedure_exchange(ctx, miners)
        counts = {len(m.gradient_set) for m in miners}
        assert counts == {5}
        assert ctx.gradient_matrix.shape[0] == 5
        assert sorted(ctx.gradient_client_ids) == [0, 1, 2, 3, 4]

    def test_ids_follow_rows_when_sender_order_is_not_numeric(self):
        # Rows are sorted by sender, so "client-10" comes before "client-2":
        # each row's client id must still be the client that uploaded it.
        miners = []
        for k in range(2):
            chain = Blockchain(enforce_pow=False)
            chain.add_genesis(Block.genesis())
            miners.append(Miner(f"miner-{k}", chain))
        vectors = {cid: np.full(3, float(cid)) for cid in (2, 10, 1, 11, 3)}
        for i, (cid, vector) in enumerate(vectors.items()):
            miners[i % 2].receive_upload(
                make_gradient_transaction(f"client-{cid}", 0, vector, client_index=cid)
            )
        ctx = _context(np.zeros(3), list(vectors))
        procedure_exchange(ctx, miners)
        assert ctx.gradient_client_ids == [1, 10, 11, 2, 3]
        for cid, row in zip(ctx.gradient_client_ids, ctx.gradient_matrix):
            assert row.tobytes() == vectors[cid].tobytes()

    def test_single_miner_exchange_is_noop(self, setup):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, [0, 1])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        procedure_upload(ctx, miners[:1], keystore, new_rng(0, "upload"))
        procedure_exchange(ctx, miners[:1])
        assert ctx.gradient_matrix.shape[0] == 2


class TestUploadsAreConsumed:
    """Procedure III's stacked matrix is the one copy of the round's uploads."""

    def _uploaded(self, setup, selected, *, late=()):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, selected)
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        vectors = {u.client_id: u.parameters.copy() for u in ctx.updates}
        timing = SimpleNamespace(on_time_ids=[c for c in selected if c not in late])
        stragglers = apply_round_mode(ctx, timing, "async")
        procedure_upload(ctx, miners, keystore, new_rng(0, "upload"))
        return ctx, miners, keystore, vectors, stragglers

    def test_stacked_uploads_release_their_vectors(self, setup):
        ctx, miners, keystore, vectors, _ = self._uploaded(setup, [0, 1, 2, 3, 4])
        # Procedure II hands each vector over: the transaction is its one holder.
        assert all(u.parameters is None for u in ctx.updates)
        assert all(tx.payload is not None for tx in ctx.transactions)
        ids = {tx.tx_id: (tx.payload_digest, tx.signature) for tx in ctx.transactions}
        procedure_exchange(ctx, miners)
        for cid, row in zip(ctx.gradient_client_ids, ctx.gradient_matrix):
            assert row.tobytes() == vectors[cid].tobytes()
        assert all(tx.payload is None for tx in ctx.transactions)
        # Identity, digest, signature and client index outlive the payload.
        assert {tx.tx_id: (tx.payload_digest, tx.signature) for tx in ctx.transactions} == ids
        assert all(tx.verify(keystore) for tx in ctx.transactions)
        assert sorted(int(tx.metadata["client_index"]) for tx in ctx.transactions) == [
            0, 1, 2, 3, 4,
        ]

    def test_a_consumed_set_raises_naming_the_sender(self, setup):
        ctx, miners, _, _, _ = self._uploaded(setup, [0, 1, 2])
        procedure_exchange(ctx, miners)
        with pytest.raises(ValueError, match=r"'client-0'.*already stacked"):
            miners[1].gradient_vectors()
        with pytest.raises(ValueError, match="already stacked"):
            procedure_exchange(ctx, miners)

    def test_stragglers_and_rejected_uploads_keep_their_vectors(self, setup):
        ctx, miners, _, vectors, stragglers = self._uploaded(
            setup, [0, 1, 2, 3, 4, 5], late=(1, 4)
        )
        procedure_exchange(ctx, miners)
        assert sorted(ctx.gradient_client_ids) == [0, 2, 3, 5]
        assert [u.client_id for u in stragglers] == [1, 4]
        for update in stragglers:
            assert update.parameters.tobytes() == vectors[update.client_id].tobytes()
        # Unsigned uploads fail the miners' check: nothing stacks them.
        clients, _, _, global_params = setup
        ctx = _context(global_params, [0, 1])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        for miner in miners:
            miner.reset_round()
        procedure_upload(ctx, miners, None, new_rng(0, "upload"))
        procedure_exchange(ctx, miners)
        assert ctx.rejected_uploads == 2 and ctx.gradient_matrix.shape[0] == 0
        assert all(tx.payload is not None for tx in ctx.transactions)


class TestProcedureGlobalUpdate:
    def _prepared_ctx(self, setup, selected):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, selected)
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        procedure_upload(ctx, miners, keystore, new_rng(0, "upload"))
        procedure_exchange(ctx, miners)
        return ctx

    def test_simple_average_without_incentive(self, setup):
        ctx = self._prepared_ctx(setup, [0, 1, 2])
        procedure_global_update(
            ctx, clusterer=None, base_reward=1.0, strategy=None, run_incentive=False
        )
        np.testing.assert_allclose(
            ctx.new_global_parameters, ctx.gradient_matrix.mean(axis=0), atol=1e-12
        )
        assert ctx.contribution_report is None

    def test_incentive_path_produces_report_and_rewards(self, setup):
        ctx = self._prepared_ctx(setup, [0, 1, 2, 3])
        procedure_global_update(
            ctx,
            clusterer=DBSCAN(eps=0.8),
            base_reward=1.0,
            strategy=KeepAllStrategy(),
        )
        assert ctx.contribution_report is not None
        assert ctx.new_global_parameters is not None
        assert set(e.client_id for e in ctx.reward_list) == set(
            ctx.contribution_report.high_contributors
        )

    def test_empty_gradient_set_keeps_previous_global(self, setup):
        _, _, _, global_params = setup
        ctx = _context(global_params, [])
        ctx.gradient_matrix = np.zeros((0, 0))
        procedure_global_update(
            ctx, clusterer=DBSCAN(eps=0.7), base_reward=1.0, strategy=KeepAllStrategy()
        )
        np.testing.assert_allclose(ctx.new_global_parameters, global_params)

    def test_discard_strategy_records_outcome(self, setup):
        ctx = self._prepared_ctx(setup, [0, 1, 2, 3, 4, 5])
        procedure_global_update(
            ctx,
            clusterer=DBSCAN(eps=0.5),
            base_reward=1.0,
            strategy=DiscardStrategy(),
        )
        outcome = ctx.strategy_outcome
        assert outcome is not None
        assert set(outcome.discarded_client_ids) < set(ctx.gradient_client_ids)


class TestNonFiniteScreen:
    """A NaN or ±Inf upload leaves the round before any aggregate reads it."""

    def _round(self, matrix, previous, defense, ids=None):
        ctx = RoundContext(
            round_index=0, global_parameters=previous, gradient_matrix=matrix,
            gradient_client_ids=ids or list(range(10, 10 + matrix.shape[0])),
        )
        return procedure_global_update(
            ctx,
            clusterer=DBSCAN(eps=0.8),
            base_reward=1.0,
            strategy=KeepAllStrategy(),
            defense=None if defense is None else make_defense(defense),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("defense", [None, "norm_clip+multi_krum"])
    def test_poisoned_row_is_rejected(self, bad, defense):
        rng = np.random.default_rng(3)
        previous = rng.normal(size=6)
        matrix = previous + 0.1 * rng.normal(size=(9, 6))
        ids = [10, 11, 12, 13, 15, 16, 17, 18]
        clean = self._round(np.delete(matrix, 4, axis=0), previous, defense, ids)
        matrix[4, 2] = bad
        ctx = self._round(matrix, previous, defense)
        assert np.all(np.isfinite(ctx.new_global_parameters))
        assert 14 in ctx.defense_rejected_ids
        assert 14 not in ctx.gradient_client_ids
        assert 14 not in {entry.client_id for entry in ctx.reward_list}
        # The screened round is the round the poisoned upload never joined.
        assert ctx.new_global_parameters.tobytes() == clean.new_global_parameters.tobytes()
        assert ctx.gradient_client_ids == clean.gradient_client_ids
        assert ctx.gradient_matrix.tobytes() == clean.gradient_matrix.tobytes()

    @pytest.mark.parametrize("defense", [None, "norm_clip+multi_krum"])
    def test_all_rows_poisoned_keeps_previous_global(self, defense):
        previous = np.arange(4.0)
        matrix = np.full((3, 4), np.nan)
        matrix[1, 0] = np.inf
        ctx = self._round(matrix, previous, defense)
        assert ctx.new_global_parameters.tobytes() == previous.tobytes()
        assert ctx.defense_rejected_ids == [10, 11, 12]
        assert ctx.gradient_client_ids == []
        assert ctx.strategy_outcome is None


class TestProcedureMining:
    def test_mined_block_commits_on_all_replicas(self, setup):
        clients, miners, keystore, global_params = setup
        ctx = _context(global_params, [0, 1])
        procedure_local_update(ctx, serial_updates(clients), LOCAL_CFG)
        procedure_upload(ctx, miners, keystore, new_rng(0, "upload"))
        procedure_exchange(ctx, miners)
        procedure_global_update(
            ctx, clusterer=DBSCAN(eps=0.8), base_reward=1.0, strategy=KeepAllStrategy()
        )
        procedure_mining(
            ctx, miners, keystore, ["miner-1", "miner-0"], use_real_pow=True, pow_difficulty=4.0
        )
        # The race's first-ranked miner builds and signs the block.
        assert ctx.winning_miner == "miner-1"
        assert miners[0].chain.last_block.header.miner_id == "miner-1"
        assert all(m.chain.height == 2 for m in miners)
        tips = {m.chain.last_block.block_hash for m in miners}
        assert len(tips) == 1
        # The block carries exactly the global update plus the reward list (Assumption 2).
        types = [tx.tx_type for tx in miners[0].chain.last_block.transactions]
        assert types.count(TransactionType.GLOBAL_UPDATE) == 1
        assert types.count(TransactionType.REWARD) == len(ctx.reward_list)
        assert types.count(TransactionType.GRADIENT_UPLOAD) == 0

    def test_mining_requires_global_update(self, setup):
        _, miners, keystore, global_params = setup
        ctx = _context(global_params, [])
        with pytest.raises(RuntimeError, match="before procedure_global_update"):
            procedure_mining(ctx, miners, keystore, ["miner-0", "miner-1"])

    def test_mining_needs_a_ranked_member(self, setup):
        _, miners, keystore, global_params = setup
        ctx = _context(global_params, [])
        ctx.new_global_parameters = global_params
        with pytest.raises(ValueError, match="ranks none of the settling miners"):
            procedure_mining(ctx, miners, keystore, ["miner-7"])
        assert all(m.chain.height == 1 for m in miners)
