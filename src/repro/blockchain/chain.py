"""The ledger: an append-only, validated chain of blocks.

Under Assumption 1 + 2, FAIR-BFL produces exactly one block per communication
round and never forks, so every miner's :class:`Blockchain` copy stays
identical.  The class still implements full validation (hash links, Merkle
roots, PoW targets, non-decreasing rounds and, on a keyed chain, the winning
miner's header signature) so that tampering is detectable.

Once the gossip substrate (:mod:`repro.net`) partitions the miner committee,
views *do* diverge: :class:`ForkChoice` is the deterministic rule every node
applies to pick between competing chains (most cumulative proof-of-work,
with a seeded hash tie-break for equal work), and :meth:`Blockchain.reorg_to`
swaps a losing view onto the winning chain after validating it in full.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.blockchain.block import Block, GENESIS_PREVIOUS_HASH
from repro.crypto.hashing import difficulty_to_target, meets_target, target_work
from repro.crypto.keystore import KeyStore

__all__ = ["Blockchain", "ForkChoice"]


class BlockValidationError(ValueError):
    """Raised when an appended block fails validation."""


@dataclass(frozen=True)
class ForkChoice:
    """Deterministic most-work fork choice with a seeded hash tie-break.

    The chain with more cumulative work (:attr:`Blockchain.total_work`: each
    header's difficulty as Bitcoin counts work, summed) always wins; with
    equal difficulties that is the longer chain.  Equal-work forks are
    resolved by comparing the SHA-256 digest of ``salt || tip hash``: the
    chain whose salted tip digest is lexicographically smaller wins.  Every
    node that shares the same ``salt`` (the experiment seed) therefore picks
    the same winner from the same candidate set — no dependence on message
    arrival order, dict iteration, or node identity — which is what lets
    divergent views reconverge bit-deterministically when a partition heals.
    """

    salt: int = 0

    def tie_break(self, tip_hash: str) -> str:
        """The salted digest equal-work forks are compared by (lower wins)."""
        payload = f"fork-choice|{int(self.salt)}|{tip_hash}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def prefer(self, current: "Blockchain", candidate: "Blockchain") -> bool:
        """True when ``candidate`` strictly beats ``current``."""
        if not candidate.blocks:
            return False
        if not current.blocks:
            return True
        current_work, candidate_work = current.total_work, candidate.total_work
        if candidate_work != current_work:
            return candidate_work > current_work
        current_tip = current.last_block.block_hash
        candidate_tip = candidate.last_block.block_hash
        if candidate_tip == current_tip:
            return False
        return self.tie_break(candidate_tip) < self.tie_break(current_tip)

    def best(self, chains: Iterable["Blockchain"]) -> "Blockchain":
        """The winning chain among ``chains`` (raises on an empty iterable)."""
        winner: Blockchain | None = None
        for chain in chains:
            if winner is None or self.prefer(winner, chain):
                winner = chain
        if winner is None:
            raise ValueError("fork choice needs at least one candidate chain")
        return winner


@dataclass
class Blockchain:
    """A validated list of blocks starting from a genesis block.

    Parameters
    ----------
    enforce_pow:
        When True, appended non-genesis blocks must satisfy their stated
        difficulty target.  FAIR-BFL simulations that use the stochastic
        timing model (rather than actually grinding nonces) set this to False.
    keystore:
        The keys of the entities allowed to mine.  When set, every
        non-genesis block's header signature must verify against the key
        registered under its ``miner_id``, so an id missing from the store is
        refused.  ``None`` (the vanilla baseline, or an unsigned FAIR-BFL
        run) accepts unsigned blocks.
    """

    enforce_pow: bool = True
    blocks: list[Block] = field(default_factory=list)
    keystore: KeyStore | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.blocks:
            self._validate_full_chain(self.blocks)

    # -- basic accessors ----------------------------------------------------
    @property
    def height(self) -> int:
        """Number of blocks in the chain."""
        return len(self.blocks)

    @property
    def total_work(self) -> int:
        """Cumulative proof-of-work of every block (what :class:`ForkChoice` compares)."""
        return sum(
            target_work(difficulty_to_target(block.header.difficulty)) for block in self.blocks
        )

    @property
    def last_block(self) -> Block:
        """The chain tip.

        Raises
        ------
        IndexError
            If the chain is empty (no genesis yet).
        """
        if not self.blocks:
            raise IndexError("blockchain is empty; add a genesis block first")
        return self.blocks[-1]

    def latest_global_update(self) -> np.ndarray | None:
        """The most recent global gradient recorded on-chain (Procedure I reads this)."""
        for block in reversed(self.blocks):
            update = block.global_update()
            if update is not None:
                return update
        return None

    def total_rewards_by_client(self) -> dict[str, float]:
        """Accumulated reward per client across all blocks."""
        totals: dict[str, float] = {}
        for block in self.blocks:
            for record in block.reward_records():
                client = str(record.get("client"))
                totals[client] = totals.get(client, 0.0) + float(record.get("reward", 0.0))
        return totals

    # -- validation / mutation ----------------------------------------------
    def _link_error(self, parent: Block | None, block: Block) -> str | None:
        """The block rulebook: why ``block`` may not follow ``parent``, or None if it may.

        ``parent=None`` asks whether ``block`` is a well-formed genesis.  Every
        path that admits a block — :meth:`add_genesis`, :meth:`add_block` /
        :meth:`validate_candidate`, and the full-chain validation behind
        :meth:`is_valid` and :meth:`reorg_to` — goes through these rules.
        The tiers run in order: the header checks (index, link, round, proof
        of work), then the Merkle body, then — on a keyed chain, genesis
        exempt — the miner's header signature.  A bad header is rejected
        before its body is hashed, and a bad body before any RSA runs.
        """
        if parent is None:
            if block.index != 0 or block.header.previous_hash != GENESIS_PREVIOUS_HASH:
                return "invalid genesis block (index/previous hash)"
        else:
            if block.index != parent.index + 1:
                return f"expected block index {parent.index + 1}, got {block.index}"
            if block.header.previous_hash != parent.block_hash:
                return "previous-hash link does not match the parent block"
            if block.round_index < parent.round_index:
                # Non-decreasing, not strictly increasing: the vanilla baseline
                # mines several blocks per round.
                return (
                    f"round index {block.round_index} goes back before the "
                    f"parent's round {parent.round_index}"
                )
        if parent is not None and self.enforce_pow:
            target = difficulty_to_target(block.header.difficulty)
            if not meets_target(block.block_hash, target):
                return "block hash does not satisfy its difficulty target"
        if not block.validate_merkle_root():
            return "Merkle root does not match the block body"
        if (
            parent is not None
            and self.keystore is not None
            and not block.verify_signature(self.keystore)
        ):
            return (
                f"header signature does not verify against the registered key "
                f"of miner {block.header.miner_id!r}"
            )
        return None

    def add_genesis(self, block: Block) -> Block:
        """Install the genesis block (index 0, null previous hash)."""
        if self.blocks:
            raise BlockValidationError("genesis block already present")
        error = self._link_error(None, block)
        if error is not None:
            raise BlockValidationError(error)
        self.blocks.append(block)
        return block

    def add_block(self, block: Block) -> Block:
        """Validate and append ``block`` to the tip."""
        error = self.validate_candidate(block)
        if error is not None:
            raise BlockValidationError(error)
        self.blocks.append(block)
        return block

    def validate_candidate(self, block: Block) -> str | None:
        """Return None if ``block`` may extend the tip, else a description of the problem."""
        if not self.blocks:
            return "chain has no genesis block"
        return self._link_error(self.last_block, block)

    def is_valid(self) -> bool:
        """Re-validate the whole chain (used after deserialisation or tampering tests)."""
        try:
            self._validate_full_chain(self.blocks)
        except BlockValidationError:
            return False
        return True

    def _validate_full_chain(self, blocks: list[Block]) -> None:
        parent = None
        for height, block in enumerate(blocks):
            error = self._link_error(parent, block)
            if error is not None:
                raise BlockValidationError(f"{error} (at height {height})")
            parent = block

    def reorg_to(self, blocks: Sequence[Block]) -> tuple[int, int]:
        """Replace this chain with the (winning) candidate chain ``blocks``.

        The candidate is validated in full *before* anything is discarded —
        every block against the one rulebook (:meth:`_link_error`) — and must
        share this chain's genesis block, so a node can never be reorged onto
        a different ledger.  Returns
        ``(rolled_back, applied)``: how many tip blocks were discarded and how
        many candidate blocks replaced or extended them past the common
        prefix (a node counts a reorg when ``rolled_back`` is non-zero).

        Raises
        ------
        BlockValidationError
            If the candidate chain is invalid or does not share the genesis.
        """
        candidate = list(blocks)
        if not candidate:
            raise BlockValidationError("cannot reorg to an empty chain")
        self._validate_full_chain(candidate)
        if self.blocks and candidate[0].block_hash != self.blocks[0].block_hash:
            raise BlockValidationError("candidate chain has a different genesis block")
        common = 0
        for ours, theirs in zip(self.blocks, candidate):
            if ours.block_hash != theirs.block_hash:
                break
            common += 1
        rolled_back = len(self.blocks) - common
        applied = len(candidate) - common
        self.blocks = candidate
        return rolled_back, applied

    def copy(self) -> "Blockchain":
        """Shallow copy sharing block objects (miners' replicated ledgers)."""
        clone = Blockchain(enforce_pow=self.enforce_pow, keystore=self.keystore)
        clone.blocks = list(self.blocks)
        return clone

    def __len__(self) -> int:
        return len(self.blocks)
