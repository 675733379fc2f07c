"""Blockchain substrate.

Implements the distributed-ledger machinery FAIR-BFL runs on top of:

* :mod:`repro.blockchain.transaction` — transactions (client-signed gradient
  uploads, reward payouts, global-update records);
* :mod:`repro.blockchain.merkle` — Merkle trees over transaction IDs;
* :mod:`repro.blockchain.block` — block headers/bodies with SHA-256 linking,
  each mined header signed by its miner;
* :mod:`repro.blockchain.pow` — proof-of-work nonce search (paper Eq. 4);
  solve times are the event kernel's (:mod:`repro.sim.rounds`);
* :mod:`repro.blockchain.chain` — append/validate ledger plus
  the deterministic fork-choice rule (most cumulative work, seeded hash
  tie-break) and reorg handling the gossip substrate (:mod:`repro.net`) builds on;
* :mod:`repro.blockchain.miner` — miner nodes combining the above;
* :mod:`repro.blockchain.consensus` — the fork-probability model that drives
  Fig. 6b.
"""

from repro.blockchain.block import Block, GENESIS_PREVIOUS_HASH
from repro.blockchain.chain import Blockchain, ForkChoice
from repro.blockchain.consensus import ForkModel
from repro.blockchain.merkle import merkle_root
from repro.blockchain.miner import Miner
from repro.blockchain.pow import mine_block
from repro.blockchain.transaction import (
    Transaction,
    TransactionType,
    make_global_update_transaction,
    make_gradient_transaction,
    make_reward_transaction,
)

__all__ = [
    "Block",
    "GENESIS_PREVIOUS_HASH",
    "Blockchain",
    "ForkChoice",
    "ForkModel",
    "merkle_root",
    "Miner",
    "mine_block",
    "Transaction",
    "TransactionType",
    "make_global_update_transaction",
    "make_gradient_transaction",
    "make_reward_transaction",
]
