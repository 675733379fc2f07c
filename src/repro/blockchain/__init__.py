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
