"""Blocks: header, body, hashing.

In FAIR-BFL (Assumption 2) every block carries exactly one round's global
gradient plus that round's reward transactions; in the vanilla-BFL baseline a
block carries whatever gradient-upload transactions fit under the block-size
limit.  The same :class:`Block` type serves both: the orchestrators decide
what goes inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.blockchain.merkle import merkle_root
from repro.blockchain.transaction import Transaction, TransactionType
from repro.crypto.hashing import sha256_hex
from repro.crypto.keystore import KeyStore

__all__ = ["Block", "GENESIS_PREVIOUS_HASH"]

#: Previous-hash value of the genesis block.
GENESIS_PREVIOUS_HASH = "0" * 64


@dataclass
class BlockHeader:
    """The mined and signed portion of a block.

    Attributes
    ----------
    index:
        Height of the block in the chain (genesis = 0).
    previous_hash:
        Hash of the parent block header.
    merkle_root:
        Merkle root over the body's transaction IDs.
    round_index:
        The FL communication round this block finalises (-1 for genesis).
    miner_id:
        Identifier of the miner that produced the block.
    nonce:
        Proof-of-work nonce.
    timestamp:
        Simulated time at which the block was created.
    difficulty:
        Mining difficulty in force when the block was mined.
    signature:
        The winning miner's RSA signature over :meth:`serialize`, made once
        the proof of work is found (:meth:`Block.sign`).  It is not part of
        the serialisation, so the block hash, the PoW and every ``tx_id``
        are the same signed or not.  The header commits to the body through
        the Merkle root, so this one signature covers the block's global
        update and reward transactions, which carry none of their own.
    """

    index: int
    previous_hash: str
    merkle_root: str
    round_index: int
    miner_id: str
    nonce: int = 0
    timestamp: float = 0.0
    difficulty: float = 1.0
    signature: int | None = None

    def serialize(self) -> bytes:
        """Canonical byte serialisation hashed by the proof of work."""
        return json.dumps(
            {
                "index": int(self.index),
                "previous_hash": self.previous_hash,
                "merkle_root": self.merkle_root,
                "round_index": int(self.round_index),
                "miner_id": self.miner_id,
                "nonce": int(self.nonce),
                "timestamp": float(self.timestamp),
                "difficulty": float(self.difficulty),
            },
            sort_keys=True,
        ).encode("utf-8")

    def compute_hash(self) -> str:
        """SHA-256 hash of the serialised header (``H(nonce + Block)`` of Eq. 4)."""
        return sha256_hex(self.serialize())


@dataclass
class Block:
    """A full block: header plus transaction body.

    Every replica of a committee validates the same block object, so the
    body's Merkle root is memoised by the tuple of its transactions' ids
    (:meth:`validate_merkle_root`): editing the body, or any
    transaction's identity, changes the tuple and forces a recomputation.
    The memo is a cache, not state, and is never pickled.
    """

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_merkle_memo", None)
        return state

    @property
    def block_hash(self) -> str:
        """Hash of the block header."""
        return self.header.compute_hash()

    @property
    def index(self) -> int:
        return self.header.index

    @property
    def round_index(self) -> int:
        return self.header.round_index

    def global_update(self) -> np.ndarray | None:
        """Return the global-gradient payload if this block records one."""
        for tx in self.transactions:
            if tx.tx_type is TransactionType.GLOBAL_UPDATE and tx.payload is not None:
                return np.asarray(tx.payload, dtype=np.float64)
        return None

    def reward_records(self) -> list[dict]:
        """All reward transactions' metadata records in block order."""
        return [
            dict(tx.metadata)
            for tx in self.transactions
            if tx.tx_type is TransactionType.REWARD
        ]

    def validate_merkle_root(self) -> bool:
        """Check the header's Merkle root against the body."""
        return self.header.merkle_root == self._body_root()

    def _body_root(self) -> str:
        """The body's Merkle root, recomputed only when its ``tx_id`` tuple changes."""
        tx_ids = tuple(tx.tx_id for tx in self.transactions)
        memo = self.__dict__.get("_merkle_memo")
        if memo is None or memo[0] != tx_ids:
            memo = self.__dict__["_merkle_memo"] = (tx_ids, merkle_root(list(tx_ids)))
        return memo[1]

    def sign(self, keystore: KeyStore) -> "Block":
        """Sign the finished header with its miner's private key and return ``self``."""
        header = self.header
        header.signature = keystore.sign(header.miner_id, header.serialize())
        return self

    def verify_signature(self, keystore: KeyStore) -> bool:
        """Whether the header signature verifies against the miner's registered key."""
        header = self.header
        return header.signature is not None and keystore.verify(
            header.miner_id, header.serialize(), header.signature
        )

    @classmethod
    def create(
        cls,
        *,
        index: int,
        previous_hash: str,
        round_index: int,
        miner_id: str,
        transactions: list[Transaction],
        timestamp: float = 0.0,
        difficulty: float = 1.0,
    ) -> "Block":
        """Assemble an (un-mined) block whose header commits to ``transactions``."""
        header = BlockHeader(
            index=int(index),
            previous_hash=previous_hash,
            merkle_root="",
            round_index=int(round_index),
            miner_id=miner_id,
            timestamp=float(timestamp),
            difficulty=float(difficulty),
        )
        block = cls(header=header, transactions=list(transactions))
        header.merkle_root = block._body_root()  # seeds the memo every replica reads
        return block

    @classmethod
    def genesis(cls, *, initial_global_update: Transaction | None = None) -> "Block":
        """The genesis block (optionally carrying the initial global parameters)."""
        txs = [] if initial_global_update is None else [initial_global_update]
        return cls.create(
            index=0,
            previous_hash=GENESIS_PREVIOUS_HASH,
            round_index=-1,
            miner_id="genesis",
            transactions=txs,
        )
