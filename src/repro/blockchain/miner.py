"""Miner nodes.

A FAIR-BFL miner plays a dual role (paper Section 4.2): it is both a
blockchain bookkeeper (collects transactions, competes in proof of work,
validates blocks) and a stand-in for the FL server (aggregates the gradient
set, runs the incentive mechanism).  The :class:`Miner` class implements the
bookkeeping half; the aggregation/incentive logic is injected by the
orchestrator in :mod:`repro.core` so the same miner type serves both FAIR-BFL
and the vanilla baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.pow import mine_block
from repro.blockchain.transaction import Transaction, TransactionType
from repro.crypto.keystore import KeyStore

__all__ = ["Miner", "replicated_committee"]


@dataclass
class Miner:
    """A miner with its ledger replica and per-round gradient set.

    Attributes
    ----------
    miner_id:
        Unique identifier (also its key-store entity ID).
    chain:
        This miner's ledger replica.
    keystore:
        Shared key registry of the uploading clients.  A miner verifies iff
        it holds one: with a store, uploads with missing or invalid
        signatures are rejected, as in paper Figure 2; without one (an
        unsigned run), every upload is accepted.
    """

    miner_id: str
    chain: Blockchain
    keystore: KeyStore | None = None
    gradient_set: dict[str, Transaction] = field(default_factory=dict)

    def reset_round(self) -> None:
        """Clear the per-round gradient set.

        The orchestrator calls this once the round's block has committed (the
        set is spent, and holding it would keep the round's uploads alive
        through the next round's local training); the gossip substrate also
        calls it to void an offline miner's set.
        """
        self.gradient_set.clear()

    # -- Procedure II: receive uploads from associated clients ---------------
    def receive_upload(self, tx: Transaction) -> bool:
        """Accept a client's gradient-upload transaction into the local set.

        Returns True when the transaction is accepted: an upload, not a
        duplicate, and — when the miner holds a key store — validly signed.
        """
        if tx.tx_type is not TransactionType.GRADIENT_UPLOAD:
            return False
        if self.keystore is not None and not tx.verify(self.keystore):
            return False
        if tx.tx_id in self.gradient_set:
            return False
        self.gradient_set[tx.tx_id] = tx
        return True

    # -- Procedure III: exchange gradient sets with other miners -------------
    def merge_gradient_set(self, other_set: dict[str, Transaction]) -> int:
        """Append transactions from another miner's set that are not already present.

        Mirrors Algorithm 1 lines 20-22: check whether each received
        transaction exists in the current set and append it if not.  Signature
        verification is repeated here because "miners will also use the RSA
        encryption algorithm to validate the transactions from other miners"
        (Section 4.3).  Returns the number of newly added transactions.
        """
        added = 0
        for tx_id, tx in other_set.items():
            if tx_id in self.gradient_set:
                continue
            if self.keystore is not None and not tx.verify(self.keystore):
                continue
            self.gradient_set[tx_id] = tx
            added += 1
        return added

    def gradient_vectors(self) -> tuple[list[str], np.ndarray]:
        """Return (sender IDs, stacked gradient matrix) for the current set.

        The row order is sorted by sender ID so every miner derives the same
        matrix from the same set (needed for identical global updates across
        miners under Assumption 1).  Raises :class:`ValueError` naming the
        sender of an upload whose payload Procedure III already consumed.
        """
        txs = sorted(self.gradient_set.values(), key=lambda t: t.sender)
        senders = [tx.sender for tx in txs]
        if not txs:
            return senders, np.zeros((0, 0), dtype=np.float64)
        for tx in txs:
            if tx.payload is None:
                raise ValueError(
                    f"miner {self.miner_id}: the upload from {tx.sender!r} (round "
                    f"{tx.round_index}) was already stacked and its payload released"
                )
        matrix = np.stack([np.asarray(tx.payload, dtype=np.float64) for tx in txs], axis=0)
        return senders, matrix

    # -- Procedure V: block creation ------------------------------------------
    def build_block(
        self,
        round_index: int,
        transactions: list[Transaction],
        *,
        timestamp: float = 0.0,
        difficulty: float = 1.0,
    ) -> Block:
        """Assemble the next block on top of this miner's chain tip."""
        tip = self.chain.last_block
        return Block.create(
            index=tip.index + 1,
            previous_hash=tip.block_hash,
            round_index=round_index,
            miner_id=self.miner_id,
            transactions=transactions,
            timestamp=timestamp,
            difficulty=difficulty,
        )

    def mine(self, block: Block, *, difficulty: float = 1.0) -> Block:
        """Run the actual PoW nonce search on ``block`` and return it mined.

        Raises
        ------
        RuntimeError
            If no satisfying nonce is found within :func:`mine_block`'s
            attempt budget (only possible if the difficulty is set
            unrealistically high for it).
        """
        result = mine_block(block, difficulty=difficulty)
        if not result.success:
            raise RuntimeError(
                f"miner {self.miner_id} failed to find a nonce at difficulty "
                f"{difficulty} within {result.attempts} attempts"
            )
        return block

    def accept_block(self, block: Block) -> None:
        """Validate a received block and append it to the local replica.

        Mirrors Algorithm 1 lines 34-38: on receiving a block, verify the proof
        of work / links / header signature, stop local mining (implicit in the
        synchronous simulation), and append.
        """
        self.chain.add_block(block)


def replicated_committee(
    miner_ids: list[str],
    genesis: Block,
    *,
    enforce_pow: bool,
    keystore: KeyStore | None,
) -> list[Miner]:
    """One :class:`Miner` per id, each on its own ledger replica of ``genesis``.

    With a ``keystore`` the replicas share a store of the committee's keys
    alone, so they admit only blocks whose header a member of ``miner_ids``
    signed under its own id: a client's key in ``keystore`` signs its
    uploads, never a block.
    """
    committee_keys = None
    if keystore is not None:
        committee_keys = KeyStore(key_bits=keystore.key_bits)
        for miner_id in miner_ids:
            committee_keys.register(miner_id)
    miners = []
    for miner_id in miner_ids:
        chain = Blockchain(enforce_pow=enforce_pow, keystore=committee_keys)
        chain.add_genesis(genesis)
        miners.append(Miner(miner_id=miner_id, chain=chain, keystore=keystore))
    return miners
