"""Tests for the blockchain substrate: transactions, merkle, blocks, PoW, chain."""

from __future__ import annotations

import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain import transaction as transaction_module
from repro.blockchain.block import Block, GENESIS_PREVIOUS_HASH
from repro.blockchain.chain import Blockchain, BlockValidationError
from repro.blockchain.miner import replicated_committee
from repro.blockchain.merkle import merkle_root
from repro.blockchain.pow import mine_block
from repro.blockchain.transaction import (
    Transaction,
    TransactionType,
    make_global_update_transaction,
    make_gradient_transaction,
    make_reward_transaction,
)
from repro.crypto.hashing import difficulty_to_target, meets_target
from repro.crypto.keystore import KeyStore
from repro.utils.rng import new_rng


@pytest.fixture(scope="module")
def keystore():
    store = KeyStore(key_bits=128)
    for name in ("client-0", "client-1", "miner-0", "miner-1"):
        store.register(name)
    return store


def _gradient_tx(sender="client-0", round_index=0, size=8, keystore=None, seed=0):
    vec = new_rng(seed, "tx", sender, round_index).normal(size=size)
    return make_gradient_transaction(sender, round_index, vec, keystore=keystore)


class TestTransactions:
    def test_gradient_transaction_fields(self, keystore):
        tx = _gradient_tx(keystore=keystore)
        assert tx.tx_type is TransactionType.GRADIENT_UPLOAD
        assert tx.payload_size_bytes == 8 * 8
        assert tx.signature is not None
        assert len(tx.payload_digest) == 64

    def test_signature_verifies(self, keystore):
        tx = _gradient_tx(keystore=keystore)
        assert tx.verify(keystore)

    def test_unsigned_transaction_fails_verification(self, keystore):
        tx = _gradient_tx(keystore=None)
        assert not tx.verify(keystore)

    def test_tampering_breaks_verification(self, keystore):
        tx = _gradient_tx(keystore=keystore)
        tx.round_index = 99
        assert not tx.verify(keystore)

    def test_tx_id_changes_with_content(self, keystore):
        a = _gradient_tx(round_index=0, keystore=keystore)
        b = _gradient_tx(round_index=1, keystore=keystore)
        assert a.tx_id != b.tx_id

    def test_tx_id_deterministic(self, keystore):
        a = _gradient_tx(seed=5, keystore=keystore)
        b = _gradient_tx(seed=5, keystore=keystore)
        assert a.tx_id == b.tx_id

    def test_global_update_transaction(self, keystore):
        vec = np.ones(16)
        tx = make_global_update_transaction("miner-0", 4, vec).sign(keystore)
        assert tx.tx_type is TransactionType.GLOBAL_UPDATE
        np.testing.assert_array_equal(tx.payload, vec)
        assert tx.verify(keystore)

    def test_reward_transaction_metadata(self, keystore):
        tx = make_reward_transaction("miner-0", 2, "client-1", 0.75).sign(keystore)
        assert tx.tx_type is TransactionType.REWARD
        assert tx.metadata["client"] == "client-1"
        assert tx.metadata["reward"] == pytest.approx(0.75)
        assert tx.verify(keystore)


class TestMerkle:
    def test_empty_root_is_stable(self):
        assert merkle_root([]) == merkle_root([])

    def test_root_changes_with_content(self):
        assert merkle_root(["a"]) != merkle_root(["b"])
        assert merkle_root(["a", "b"]) != merkle_root(["b", "a"])

    def test_single_leaf(self):
        assert len(merkle_root(["only"])) == 64

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_root_commits_to_every_leaf(self, n):
        leaves = [f"tx-{i}" for i in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            tampered = list(leaves)
            tampered[i] = "forged"
            assert merkle_root(tampered) != root, i

    @pytest.mark.parametrize("n", [3, 5, 13])
    def test_odd_level_pairs_its_last_node_with_itself(self, n):
        """The documented pairing rule: an odd level's last node is hashed with
        a copy of itself, so repeating the last leaf gives the same root."""
        leaves = [f"tx-{i}" for i in range(n)]
        assert merkle_root(leaves + leaves[-1:]) == merkle_root(leaves)


class TestBlocks:
    def test_genesis_shape(self):
        g = Block.genesis()
        assert g.index == 0
        assert g.header.previous_hash == GENESIS_PREVIOUS_HASH
        assert g.validate_merkle_root()

    def test_create_commits_to_transactions(self, keystore):
        txs = [_gradient_tx(keystore=keystore)]
        block = Block.create(
            index=1, previous_hash="ab" * 32, round_index=0, miner_id="m", transactions=txs
        )
        assert block.validate_merkle_root()
        block.transactions.append(_gradient_tx(sender="client-1", keystore=keystore))
        assert not block.validate_merkle_root()

    def test_block_hash_depends_on_nonce(self):
        block = Block.genesis()
        h1 = block.block_hash
        block.header.nonce += 1
        assert block.block_hash != h1

    def test_global_update_extraction(self, keystore):
        vec = np.arange(5, dtype=float)
        block = Block.create(
            index=1,
            previous_hash="ab" * 32,
            round_index=0,
            miner_id="m",
            transactions=[make_global_update_transaction("miner-0", 0, vec)],
        )
        np.testing.assert_array_equal(block.global_update(), vec)
        assert Block.genesis().global_update() is None

    def test_reward_records(self):
        block = Block.create(
            index=1,
            previous_hash="ab" * 32,
            round_index=0,
            miner_id="m",
            transactions=[make_reward_transaction("m", 0, "client-3", 0.5)],
        )
        records = block.reward_records()
        assert records == [{"client": "client-3", "reward": 0.5, "label": "high"}]


class TestProofOfWork:
    def test_mine_block_meets_target(self):
        block = Block.genesis()
        result = mine_block(block, difficulty=8.0, max_attempts=200_000)
        assert result.success
        assert meets_target(block.header.compute_hash(), difficulty_to_target(8.0))
        assert result.attempts == block.header.nonce + 1  # nonces tried from 0

    def test_mine_block_failure_reported(self):
        block = Block.genesis()
        # Astronomically high difficulty with a couple of attempts must fail.
        result = mine_block(block, difficulty=2.0**200, max_attempts=3)
        assert not result.success
        assert result.attempts == 3

    def test_mine_block_invalid_attempts(self):
        with pytest.raises(ValueError):
            mine_block(Block.genesis(), max_attempts=0)


class TestBlockchain:
    def _chain_with_genesis(self, enforce_pow=False):
        chain = Blockchain(enforce_pow=enforce_pow)
        chain.add_genesis(Block.genesis())
        return chain

    def test_add_genesis_once(self):
        chain = self._chain_with_genesis()
        with pytest.raises(BlockValidationError):
            chain.add_genesis(Block.genesis())

    def test_append_valid_block(self):
        chain = self._chain_with_genesis()
        tip = chain.last_block
        block = Block.create(
            index=1, previous_hash=tip.block_hash, round_index=0, miner_id="m", transactions=[]
        )
        chain.add_block(block)
        assert chain.height == 2
        assert chain.is_valid()

    def test_reject_wrong_index(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=5, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[],
        )
        with pytest.raises(BlockValidationError, match="index"):
            chain.add_block(block)

    def test_reject_broken_link(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=1, previous_hash="00" * 32, round_index=0, miner_id="m", transactions=[]
        )
        with pytest.raises(BlockValidationError, match="previous-hash"):
            chain.add_block(block)

    def test_reject_merkle_mismatch(self):
        chain = self._chain_with_genesis()
        block = Block.create(
            index=1, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[],
        )
        block.transactions.append(make_reward_transaction("m", 0, "c", 1.0))
        with pytest.raises(BlockValidationError, match="Merkle"):
            chain.add_block(block)

    def test_pow_enforcement(self):
        chain = self._chain_with_genesis(enforce_pow=True)
        block = Block.create(
            index=1, previous_hash=chain.last_block.block_hash, round_index=0,
            miner_id="m", transactions=[], difficulty=2.0**40,
        )
        # Without mining, an extremely hard difficulty target will not be met.
        with pytest.raises(BlockValidationError, match="difficulty target"):
            chain.add_block(block)
        mine_block(block, difficulty=8.0)
        chain.add_block(block)
        assert chain.height == 2

    def test_tampering_detected_by_is_valid(self):
        chain = self._chain_with_genesis()
        for i in range(3):
            chain.add_block(
                Block.create(
                    index=i + 1, previous_hash=chain.last_block.block_hash,
                    round_index=i, miner_id="m",
                    transactions=[make_global_update_transaction("m", i, np.full(4, float(i)))],
                )
            )
        assert chain.is_valid()
        # Tamper with a recorded global update: the Merkle root no longer matches.
        chain.blocks[2].transactions[0] = make_global_update_transaction("m", 1, np.full(4, 99.0))
        assert not chain.is_valid()

    def test_round_index_may_repeat_but_never_go_back(self):
        # The one rulebook on every path: append, full validation, reorg.
        def block_after(tip, round_index):
            return Block.create(
                index=tip.index + 1, previous_hash=tip.block_hash,
                round_index=round_index, miner_id="m", transactions=[],
            )

        chain = self._chain_with_genesis()
        chain.add_block(block_after(chain.last_block, 3))
        chain.add_block(block_after(chain.last_block, 3))  # several blocks per round
        stale = block_after(chain.last_block, 2)
        assert "round index 2 goes back" in chain.validate_candidate(stale)
        with pytest.raises(BlockValidationError, match="round index 2 goes back"):
            chain.add_block(stale)
        # Smuggled past add_block, the tampered view fails re-validation and
        # can neither be constructed nor adopted by an honest replica.
        tampered = [*chain.blocks, stale]
        chain.blocks.append(stale)
        assert not chain.is_valid()
        with pytest.raises(BlockValidationError, match=r"goes back .*\(at height 3\)"):
            Blockchain(enforce_pow=False, blocks=tampered)
        honest = self._chain_with_genesis()
        with pytest.raises(BlockValidationError, match="round index"):
            honest.reorg_to(tampered)
        assert honest.height == 1

    def test_latest_global_update(self):
        chain = self._chain_with_genesis()
        assert chain.latest_global_update() is None
        for i in range(2):
            chain.add_block(
                Block.create(
                    index=i + 1, previous_hash=chain.last_block.block_hash,
                    round_index=i, miner_id="m",
                    transactions=[make_global_update_transaction("m", i, np.full(3, float(i)))],
                )
            )
        np.testing.assert_array_equal(chain.latest_global_update(), [1.0, 1.0, 1.0])

    def test_total_rewards_by_client(self):
        chain = self._chain_with_genesis()
        chain.add_block(
            Block.create(
                index=1, previous_hash=chain.last_block.block_hash, round_index=0,
                miner_id="m",
                transactions=[
                    make_reward_transaction("m", 0, "client-1", 0.6),
                    make_reward_transaction("m", 0, "client-2", 0.4),
                ],
            )
        )
        chain.add_block(
            Block.create(
                index=2, previous_hash=chain.last_block.block_hash, round_index=1,
                miner_id="m", transactions=[make_reward_transaction("m", 1, "client-1", 1.0)],
            )
        )
        totals = chain.total_rewards_by_client()
        assert totals["client-1"] == pytest.approx(1.6)
        assert totals["client-2"] == pytest.approx(0.4)

    def test_copy_shares_blocks(self):
        chain = self._chain_with_genesis()
        clone = chain.copy()
        assert clone.height == chain.height
        assert clone.last_block is chain.last_block

    def test_last_block_on_empty_chain(self):
        with pytest.raises(IndexError):
            Blockchain().last_block


# ---------------------------------------------------------------------------
# Ledger identity: tx_id / canonical bytes are sealed once and never stale.

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False), st.text(max_size=8),
)
_IDENTITY_VALUES = {
    "tx_type": st.sampled_from(list(TransactionType)),
    "sender": st.sampled_from(["client-0", "client-1", "miner-0", "mallory"]),
    "round_index": st.integers(0, 50),
    "payload_digest": st.text("0123456789abcdef", min_size=0, max_size=64),
    "payload_size_bytes": st.integers(0, 1 << 20),
    "metadata": st.dictionaries(st.text(max_size=6), _SCALARS, max_size=4),
}
_EDITS = st.lists(
    st.one_of(
        *(st.tuples(st.just(name), values) for name, values in _IDENTITY_VALUES.items()),
        st.tuples(st.just("payload"), st.one_of(st.none(), st.just({"k": 1}))),
    ),
    max_size=8,
)


def _fresh_equal(tx: Transaction) -> Transaction:
    """A from-scratch transaction with ``tx``'s current identity fields."""
    return Transaction(
        tx.tx_type, tx.sender, tx.round_index, tx.payload_digest,
        tx.payload_size_bytes, dict(tx.metadata),
    )


@pytest.mark.ledger
class TestLedgerIdentity:
    @given(initial=st.fixed_dictionaries(_IDENTITY_VALUES), edits=_EDITS, warm=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_identity_equals_from_scratch_after_any_permitted_edits(
        self, keystore, initial, edits, warm
    ):
        tx = Transaction(**{**initial, "sender": "client-0"}).sign(keystore)
        signed_bytes, signed_id = tx.signing_bytes(), tx.tx_id
        assert tx.verify(keystore)
        for name, value in edits:
            if warm:
                tx.tx_id  # seal before the edit, so a stale seal would show
            setattr(tx, name, value)
            fresh = _fresh_equal(tx)
            assert tx.signing_bytes() == fresh.signing_bytes()
            assert tx.tx_id == fresh.tx_id
            # A tampered transaction never verifies and never keeps its old id.
            untouched = tx.signing_bytes() == signed_bytes
            assert (tx.tx_id == signed_id) == untouched
            assert tx.verify(keystore) == untouched

    def test_in_place_metadata_edit_is_not_permitted(self):
        tx = make_reward_transaction("miner-0", 2, "client-1", 0.75)
        before = tx.tx_id
        with pytest.raises(TypeError):
            tx.metadata["reward"] = 1e9
        source = {"client": "client-1"}
        tx.metadata = source
        source["client"] = "mallory"  # the transaction took a copy
        assert tx.metadata == {"client": "client-1"}
        assert tx.tx_id == _fresh_equal(tx).tx_id != before

    def test_signature_and_payload_are_not_identity(self, keystore):
        tx = _gradient_tx()
        before = (tx.signing_bytes(), tx.tx_id)
        tx.sign(keystore)
        tx.payload = None
        assert (tx.signing_bytes(), tx.tx_id) == before
        assert tx.verify(keystore)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda tx: pickle.loads(pickle.dumps(tx))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_identity_and_the_contract(self, keystore, clone):
        tx = make_reward_transaction("miner-0", 2, "client-1", 0.75).sign(keystore)
        tx.tx_id  # sealed before cloning
        twin = clone(tx)
        assert twin == tx and twin.tx_id == tx.tx_id and twin.verify(keystore)
        with pytest.raises(TypeError):
            twin.metadata["reward"] = 1e9
        twin.round_index += 1
        assert twin.tx_id == _fresh_equal(twin).tx_id != tx.tx_id
        assert not twin.verify(keystore)

    def test_round_serialises_each_transaction_at_most_once(self, monkeypatch):
        """The quadratic re-hash (every chain tx, per member, per round) stays gone."""
        from repro import api

        counts = {"constructed": 0, "serialised": 0}
        real_init, real_dumps = Transaction.__init__, transaction_module.json.dumps

        def counting_init(self, *args, **kwargs):
            counts["constructed"] += 1
            real_init(self, *args, **kwargs)

        def counting_dumps(obj, **kwargs):
            # Reward transactions also dump their payload record; only the
            # canonical form carries a digest.
            counts["serialised"] += "digest" in obj
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(Transaction, "__init__", counting_init)
        monkeypatch.setattr(transaction_module, "json", SimpleNamespace(dumps=counting_dumps))
        api.run(
            "fairbfl-discard", num_clients=48, num_samples=960, participation=1.0,
            scheme="shard", model_name="logreg", epochs=1, miners=8, topology="ring",
            num_rounds=3,
        )
        assert counts["constructed"] >= 3 * 48
        assert 0 < counts["serialised"] <= counts["constructed"], counts


# ---------------------------------------------------------------------------
# Verify once per object: the sealed verdict and the Merkle memo stay sound.


@pytest.fixture()
def verify_calls(monkeypatch):
    """Every ``KeyStore.verify`` call, as ``(store, entity, message)``."""
    calls = []
    real_verify = KeyStore.verify

    def counting_verify(self, entity_id, message, signature):
        calls.append((self, entity_id, message))
        return real_verify(self, entity_id, message, signature)

    monkeypatch.setattr(KeyStore, "verify", counting_verify)
    return calls


def _verified_reward(keystore):
    tx = make_reward_transaction("miner-0", 2, "client-1", 0.75).sign(keystore)
    assert tx.verify(keystore)
    return tx


@pytest.mark.ledger
class TestVerifyOnce:
    def test_positive_verdict_is_reused(self, keystore, verify_calls):
        tx = _verified_reward(keystore)
        assert tx.verify(keystore) and tx.verify(keystore)
        assert len(verify_calls) == 1

    @pytest.mark.parametrize(
        "name, value",
        [
            ("metadata", {"client": "client-1", "reward": 1e9, "label": "high"}),
            ("round_index", 3),
            ("payload_digest", "0" * 64),
            ("payload_size_bytes", 1),
            ("sender", "miner-1"),
            ("tx_type", TransactionType.GLOBAL_UPDATE),
        ],
    )
    def test_identity_edit_drops_the_verdict(self, keystore, verify_calls, name, value):
        tx = _verified_reward(keystore)
        setattr(tx, name, value)
        assert not tx.verify(keystore)
        assert len(verify_calls) == 2  # recomputed, not served from the seal

    def test_signature_change_recomputes(self, keystore, verify_calls):
        tx = _verified_reward(keystore)
        good = tx.signature
        tx.signature = good + 1
        assert not tx.verify(keystore)
        assert len(verify_calls) == 2
        tx.signature = good  # the very signature the verdict was sealed with
        assert tx.verify(keystore)
        assert len(verify_calls) == 2

    def test_an_equal_non_int_signature_does_not_inherit_the_verdict(self, verify_calls):
        # Under a 33-bit modulus every signature is exactly representable as a float.
        store = KeyStore(key_bits=33)
        store.register("miner-0")
        tx = _verified_reward(store)
        tx.signature = float(tx.signature)
        assert tx.signature == int(tx.signature)
        assert not tx.verify(store)
        assert len(verify_calls) == 2

    def test_another_store_recomputes(self, keystore, verify_calls):
        tx = _verified_reward(keystore)
        stranger = KeyStore(key_bits=256)  # another modulus size: another miner-0 key
        stranger.register("miner-0")
        assert not tx.verify(stranger)
        twin = KeyStore(key_bits=128)
        twin.register("miner-0")
        assert tx.verify(twin)
        assert [store for store, _, _ in verify_calls] == [keystore, stranger, twin]

    def test_false_verdict_is_never_sealed(self, keystore, verify_calls):
        tx = make_reward_transaction("miner-0", 2, "client-1", 0.75)
        tx.signature = 12345
        assert not tx.verify(keystore) and not tx.verify(keystore)
        tx.sign(keystore)
        assert tx.verify(keystore)
        assert len(verify_calls) == 3

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda tx: pickle.loads(pickle.dumps(tx))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_reverifies(self, keystore, verify_calls, clone):
        tx = _verified_reward(keystore)
        twin = clone(tx)
        assert "_verdict" not in twin.__dict__
        assert twin.verify(keystore)
        assert len(verify_calls) == 2

    def test_committee_run_signs_each_upload_and_block_once(self, verify_calls, monkeypatch):
        """One signature per upload and per mined block; each upload verified once.

        The split round mines one block per side, and the heal reorgs one side
        onto the other's fork.  Every replica checks each header it appends
        or reorgs onto, so blocks are verified once per check, not once.
        """
        from repro import api
        from repro.core import fairbfl, procedures

        signs, mined, uploads = [], [], []
        real_sign = KeyStore.sign
        real_mining, real_upload = fairbfl.procedure_mining, procedures.make_gradient_transaction

        def counting_sign(self, entity_id, message):
            signs.append(entity_id)
            return real_sign(self, entity_id, message)

        def counting_mining(ctx, members, *args, **kwargs):
            result = real_mining(ctx, members, *args, **kwargs)
            mined.append(members[0].chain.last_block)  # every member appended it
            return result

        def counting_upload(*args, **kwargs):
            uploads.append(1)
            return real_upload(*args, **kwargs)

        monkeypatch.setattr(KeyStore, "sign", counting_sign)
        monkeypatch.setattr(fairbfl, "procedure_mining", counting_mining)
        monkeypatch.setattr(procedures, "make_gradient_transaction", counting_upload)
        history = api.run(
            "fairbfl", num_clients=48, num_samples=960, participation=1.0,
            scheme="shard", model_name="logreg", epochs=1, miners=4, topology="ring",
            partition="1-1:0,1", num_rounds=3,
        )
        assert [r.extras["net"]["chain_views"] for r in history.rounds] == [1, 2, 1]
        assert history.rounds[-1].extras["net"]["total_reorgs"] > 0
        assert len(uploads) == 3 * 48 and len(mined) == 4  # two blocks in the split round
        assert len(signs) == len(uploads) + len(mined)
        assert sorted(e for e in signs if e.startswith("miner-")) == sorted(
            block.header.miner_id for block in mined
        )
        checked = [(entity, message) for _, entity, message in verify_calls]
        by_clients = [(e, m) for e, m in checked if e.startswith("client-")]
        assert len(by_clients) == len(set(by_clients)) == len(uploads)
        assert {m for e, m in checked if e.startswith("miner-")} == {
            block.header.serialize() for block in mined
        }


def _block_on(chain, transactions):
    return Block.create(
        index=chain.last_block.index + 1,
        previous_hash=chain.last_block.block_hash,
        round_index=chain.last_block.round_index + 1,
        miner_id="miner-0",
        transactions=transactions,
    )


def _body_edits():
    """Ways to edit a validated block's body; each must break its Merkle root."""

    def replace(block):
        block.transactions[0] = _gradient_tx("client-1", seed=9)

    def append(block):
        block.transactions.append(_gradient_tx("client-1", seed=9))

    def drop(block):
        block.transactions.pop()

    def reorder(block):
        block.transactions.reverse()

    def retag(block):
        block.transactions[0].metadata = {"client_index": 99}

    return [replace, append, drop, reorder, retag]


@pytest.mark.ledger
class TestMerkleMemo:
    @pytest.fixture()
    def chain(self):
        chain = Blockchain(enforce_pow=False)
        chain.add_genesis(Block.genesis())
        return chain

    @pytest.mark.parametrize("edit", _body_edits(), ids=lambda f: f.__name__)
    def test_body_edited_after_validation_fails(self, chain, edit):
        candidate = _block_on(chain, [_gradient_tx("client-0", seed=s) for s in range(3)])
        assert chain.validate_candidate(candidate) is None
        edit(candidate)
        assert chain.validate_candidate(candidate) == "Merkle root does not match the block body"
        with pytest.raises(BlockValidationError, match="Merkle"):
            chain.add_block(candidate)

    @pytest.mark.parametrize("edit", _body_edits(), ids=lambda f: f.__name__)
    def test_chain_edited_after_append_is_invalid(self, chain, edit):
        block = chain.add_block(
            _block_on(chain, [_gradient_tx("client-0", seed=s) for s in range(3)])
        )
        assert chain.is_valid()
        edit(block)
        assert not chain.is_valid()

    def test_replicas_hash_a_body_once(self, chain, monkeypatch):
        from repro.blockchain import block as block_module

        calls = []
        real_root = block_module.merkle_root
        monkeypatch.setattr(
            block_module, "merkle_root", lambda ids: calls.append(1) or real_root(ids)
        )
        block = _block_on(chain, [_gradient_tx("client-0", seed=s) for s in range(5)])
        replicas = [chain.copy() for _ in range(8)]
        for replica in replicas:
            replica.add_block(block)
        assert all(replica.is_valid() for replica in replicas)
        assert len(calls) == 1  # Block.create's, served to every replica

    def test_header_is_checked_before_the_body(self, chain, monkeypatch):
        from repro.blockchain import block as block_module

        candidate = _block_on(chain, [_gradient_tx("client-0")])
        candidate.transactions.append(_gradient_tx("client-1"))  # stale memo
        candidate.header.previous_hash = "f" * 64
        monkeypatch.setattr(
            block_module, "merkle_root", lambda ids: pytest.fail("body hashed first")
        )
        assert "previous-hash" in chain.validate_candidate(candidate)

    def test_memo_is_not_pickled(self, chain):
        block = chain.add_block(_block_on(chain, [_gradient_tx("client-0")]))
        twin = pickle.loads(pickle.dumps(block))
        assert "_merkle_memo" in block.__dict__ and "_merkle_memo" not in twin.__dict__
        assert twin.block_hash == block.block_hash and twin.validate_merkle_root()


def _header_tampers():
    """Ways to forge a signed block; each must be refused by a keyed chain."""

    def resigned_by_another_miner(block, keystore):
        block.header.signature = keystore.sign("miner-1", block.header.serialize())

    def header_edited_after_signing(block, keystore):
        block.header.timestamp += 1.0

    def body_swapped_under_the_header(block, keystore):
        block.transactions = [_gradient_tx("client-1", seed=9)]

    def unsigned(block, keystore):
        block.header.signature = None

    def unregistered_miner(block, keystore):
        block.header.miner_id = "miner-9"
        block.header.signature = keystore.sign("miner-0", block.header.serialize())

    def signed_by_a_client_under_its_own_id(block, keystore):
        block.header.miner_id = "client-0"
        block.header.signature = keystore.sign("client-0", block.header.serialize())

    return [
        resigned_by_another_miner,
        header_edited_after_signing,
        body_swapped_under_the_header,
        unsigned,
        unregistered_miner,
        signed_by_a_client_under_its_own_id,
    ]


@pytest.mark.ledger
class TestHeaderSignature:
    @pytest.fixture()
    def chain(self, keystore):
        # A committee replica: its store holds the miners' keys, not the clients'.
        [miner, _] = replicated_committee(
            ["miner-0", "miner-1"], Block.genesis(),  # genesis is exempt: unsigned
            enforce_pow=False, keystore=keystore,
        )
        assert len(miner.chain.keystore) == 2
        assert miner.chain.keystore.public_key("miner-0") == keystore.public_key("miner-0")
        return miner.chain

    def _signed_on(self, chain, keystore, seed=0):
        return _block_on(chain, [_gradient_tx("client-0", seed=seed)]).sign(keystore)

    def test_a_signed_block_is_accepted_on_every_path(self, chain, keystore):
        block = self._signed_on(chain, keystore)
        assert chain.validate_candidate(block) is None
        honest = chain.copy()
        assert honest.keystore is chain.keystore
        chain.add_block(block)
        assert chain.is_valid()
        assert honest.reorg_to(chain.blocks) == (0, 1)
        assert Blockchain(enforce_pow=False, keystore=keystore, blocks=chain.blocks).is_valid()

    @pytest.mark.parametrize("tamper", _header_tampers(), ids=lambda f: f.__name__)
    def test_forged_block_is_refused_on_every_path(self, chain, keystore, tamper):
        block = self._signed_on(chain, keystore)
        assert chain.validate_candidate(block) is None
        tamper(block, keystore)
        error = chain.validate_candidate(block)
        assert error is not None and ("signature" in error or "Merkle" in error)
        with pytest.raises(BlockValidationError):
            chain.add_block(block)
        assert chain.height == 1
        forged = [*chain.blocks, block]
        honest = chain.copy()
        with pytest.raises(BlockValidationError, match=r"\(at height 1\)"):
            honest.reorg_to(forged)
        assert honest.blocks == chain.blocks
        with pytest.raises(BlockValidationError):
            Blockchain(enforce_pow=False, keystore=chain.keystore, blocks=forged)
        chain.blocks.append(block)  # smuggled past add_block
        assert not chain.is_valid()

    def test_a_keyless_chain_accepts_unsigned_blocks(self):
        chain = Blockchain(enforce_pow=False)
        chain.add_genesis(Block.genesis())
        block = chain.add_block(_block_on(chain, [_gradient_tx("client-0")]))
        assert block.header.signature is None and chain.is_valid()

    def test_the_signature_is_not_part_of_the_header_hash(self, chain, keystore):
        block = _block_on(chain, [_gradient_tx("client-0")])
        unsigned = (block.block_hash, block.header.serialize())
        block.sign(keystore)
        assert block.header.signature is not None
        assert (block.block_hash, block.header.serialize()) == unsigned


class TestPayloadDigest:
    @pytest.mark.parametrize(
        "vector",
        [
            np.linspace(-1.0, 1.0, 17),
            np.arange(40, dtype=np.float64).reshape(8, 5)[:, 1],
            np.linspace(-1.0, 1.0, 17, dtype=np.float32),
        ],
        ids=["contiguous", "strided", "float32"],
    )
    def test_digest_equals_the_copied_bytes(self, vector):
        import hashlib

        expected = hashlib.sha256(np.asarray(vector, dtype=np.float64).tobytes()).hexdigest()
        assert transaction_module._digest_vector(vector) == expected
