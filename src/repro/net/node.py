"""A network node: one participant's chain view, mempool, and peer set.

In the gossip substrate every miner is a :class:`Node`: it holds its *own*
:class:`~repro.blockchain.chain.Blockchain` view (no more lock-step
replication), its own :class:`~repro.blockchain.mempool.Mempool`, its peer
set, and an online flag driven by the churn trace.  Gossip moves whole
chains: :meth:`Node.sync_with` resolves competing views with the shared
:class:`~repro.blockchain.chain.ForkChoice` rule, and adopting a better chain
evicts the newly-settled transactions from its mempool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blockchain.chain import Blockchain, ForkChoice
from repro.blockchain.mempool import Mempool

__all__ = ["Node"]

#: Default per-node mempool budget (bytes per block) when none is configured.
_DEFAULT_BLOCK_BYTES = 1 << 20


@dataclass
class Node:
    """One gossip participant: chain view + mempool + peers + liveness."""

    node_id: str
    chain: Blockchain
    mempool: Mempool = field(default_factory=lambda: Mempool(_DEFAULT_BLOCK_BYTES))
    peers: tuple[str, ...] = ()
    online: bool = True
    reorgs: int = 0

    @property
    def head_hash(self) -> str:
        """The hash of this node's chain tip (empty string for an empty view)."""
        return self.chain.last_block.block_hash if self.chain.blocks else ""

    def sync_with(self, other: "Node", fork_choice: ForkChoice) -> bool:
        """Adopt ``other``'s chain when the fork-choice rule prefers it.

        Returns True when this node's view changed.  An adoption that
        discards local tip blocks is a reorg (counted in :attr:`reorgs`);
        either way the mempool drops everything the adopted chain settles.
        """
        if not fork_choice.prefer(self.chain, other.chain):
            return False
        rolled_back, _applied = self.chain.reorg_to(list(other.chain.blocks))
        if rolled_back:
            self.reorgs += 1
        self._settle(self.chain.last_block.round_index)
        return True

    def _settle(self, tip_round: int) -> None:
        """Mempool hygiene after the view advanced to ``tip_round``."""
        self.mempool.evict_included(self.chain)
        self.mempool.evict_older_than(tip_round)
