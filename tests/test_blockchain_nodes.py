"""Tests for miner nodes and the transaction-type identifiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain import miner as miner_module
from repro.blockchain.miner import Miner
from repro.blockchain.pow import MiningResult
from repro.blockchain.transaction import (
    TransactionType,
    make_global_update_transaction,
    make_gradient_transaction,
)
from repro.crypto.keystore import KeyStore


@pytest.fixture()
def keystore():
    store = KeyStore(key_bits=128)
    for name in ("client-0", "client-1", "client-2", "miner-0", "miner-1"):
        store.register(name)
    return store


def _miner(miner_id="miner-0", keystore=None):
    chain = Blockchain(enforce_pow=False)
    chain.add_genesis(Block.genesis())
    return Miner(miner_id=miner_id, chain=chain, keystore=keystore)


def _upload(sender, keystore, value=1.0, round_index=0, client_index=0):
    return make_gradient_transaction(
        sender, round_index, np.full(4, value), keystore=keystore, client_index=client_index
    )


class TestMiner:
    def test_receive_valid_upload(self, keystore):
        miner = _miner(keystore=keystore)
        assert miner.receive_upload(_upload("client-0", keystore))
        assert len(miner.gradient_set) == 1

    def test_reject_unsigned_upload(self, keystore):
        miner = _miner(keystore=keystore)
        assert not miner.receive_upload(_upload("client-0", None))
        assert not miner.gradient_set

    def test_reject_unknown_sender(self, keystore):
        miner = _miner(keystore=keystore)
        ghost_store = KeyStore(key_bits=128)
        ghost_store.register("ghost")
        tx = _upload("ghost", ghost_store)
        assert not miner.receive_upload(tx)

    def test_reject_wrong_transaction_type(self, keystore):
        miner = _miner(keystore=keystore)
        tx = make_global_update_transaction("miner-0", 0, np.ones(3)).sign(keystore)
        assert not miner.receive_upload(tx)

    def test_duplicate_upload_ignored(self, keystore):
        miner = _miner(keystore=keystore)
        tx = _upload("client-0", keystore)
        assert miner.receive_upload(tx)
        assert not miner.receive_upload(tx)
        assert len(miner.gradient_set) == 1

    def test_a_miner_without_a_keystore_accepts_uploads(self):
        # A miner verifies iff it holds a key store; a bare one has nothing to
        # verify against, so it takes unsigned uploads from clients and peers.
        chain = Blockchain(enforce_pow=False)
        chain.add_genesis(Block.genesis())
        miner = Miner("miner-0", chain)
        assert miner.receive_upload(_upload("anyone", None))
        peer_upload = _upload("other", None, value=2.0, client_index=1)
        assert miner.merge_gradient_set({peer_upload.tx_id: peer_upload}) == 1
        assert len(miner.gradient_set) == 2

    def test_merge_gradient_sets(self, keystore):
        a = _miner("miner-0", keystore)
        b = _miner("miner-1", keystore)
        a.receive_upload(_upload("client-0", keystore, client_index=0))
        b.receive_upload(_upload("client-1", keystore, value=2.0, client_index=1))
        added = a.merge_gradient_set(b.gradient_set)
        assert added == 1
        assert len(a.gradient_set) == 2
        # Re-merging adds nothing (Algorithm 1 lines 20-22 idempotence).
        assert a.merge_gradient_set(b.gradient_set) == 0

    def test_merge_verifies_signatures(self, keystore):
        a = _miner("miner-0", keystore)
        forged = _upload("client-0", None)  # unsigned
        added = a.merge_gradient_set({forged.tx_id: forged})
        assert added == 0
        assert not a.gradient_set

    def test_gradient_vectors_sorted_by_sender(self, keystore):
        miner = _miner(keystore=keystore)
        miner.receive_upload(_upload("client-2", keystore, value=2.0, client_index=2))
        miner.receive_upload(_upload("client-0", keystore, value=0.0, client_index=0))
        miner.receive_upload(_upload("client-1", keystore, value=1.0, client_index=1))
        senders, matrix = miner.gradient_vectors()
        assert senders == ["client-0", "client-1", "client-2"]
        np.testing.assert_allclose(matrix[:, 0], [0.0, 1.0, 2.0])

    def test_gradient_vectors_empty(self, keystore):
        senders, matrix = _miner(keystore=keystore).gradient_vectors()
        assert senders == []
        assert matrix.shape == (0, 0)

    def test_reset_round(self, keystore):
        miner = _miner(keystore=keystore)
        miner.receive_upload(_upload("client-0", keystore))
        miner.reset_round()
        assert len(miner.gradient_set) == 0

    def test_reset_round_lets_an_upload_back_in(self, keystore):
        # The gradient set is the one record of the uploads a miner holds:
        # a duplicate is refused while it is there, and admitted once reset.
        miner = _miner(keystore=keystore)
        tx = _upload("client-0", keystore)
        assert miner.receive_upload(tx)
        assert not miner.receive_upload(tx)
        miner.reset_round()
        assert miner.receive_upload(tx)
        assert list(miner.gradient_set) == [tx.tx_id]

    def test_build_mine_accept_block(self, keystore):
        miner = _miner(keystore=keystore)
        tx = make_global_update_transaction("miner-0", 0, np.ones(3)).sign(keystore)
        block = miner.build_block(0, [tx], difficulty=8.0)
        miner.mine(block, difficulty=8.0)
        miner.accept_block(block)
        assert miner.chain.height == 2
        assert miner.chain.last_block.round_index == 0

    def test_mine_failure_raises(self, keystore, monkeypatch):
        # A search that exhausts its budget, without spending a million hashes.
        monkeypatch.setattr(
            miner_module, "mine_block", lambda block, difficulty: MiningResult(False, 2)
        )
        miner = _miner(keystore=keystore)
        block = miner.build_block(0, [], difficulty=2.0**220)
        with pytest.raises(RuntimeError, match="failed to find a nonce"):
            miner.mine(block, difficulty=2.0**220)


class TestTransactionTypesEnum:
    def test_values_are_stable_identifiers(self):
        assert TransactionType.GRADIENT_UPLOAD.value == "gradient_upload"
        assert TransactionType.GLOBAL_UPDATE.value == "global_update"
        assert TransactionType.REWARD.value == "reward"
