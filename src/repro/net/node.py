"""A network node: one participant's chain view and liveness.

In the gossip substrate every miner is a :class:`Node`: it holds its *own*
:class:`~repro.blockchain.chain.Blockchain` view (no more lock-step
replication) and an online flag driven by the churn trace; its peer set is
the :class:`~repro.net.gossip.GossipNetwork`'s.
Gossip moves whole chains: :meth:`Node.sync_with` resolves competing views
with the shared :class:`~repro.blockchain.chain.ForkChoice` rule.  A node
keeps no pool of pending uploads: its miner's gradient set is that pool, and
the trainer empties it once the round's block is committed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blockchain.chain import Blockchain, ForkChoice

__all__ = ["Node"]


@dataclass
class Node:
    """One gossip participant: chain view + liveness."""

    node_id: str
    chain: Blockchain
    online: bool = True
    reorgs: int = 0

    @property
    def head_hash(self) -> str:
        """The hash of this node's chain tip (empty string for an empty view)."""
        return self.chain.last_block.block_hash if self.chain.blocks else ""

    def sync_with(self, other: "Node", fork_choice: ForkChoice) -> bool:
        """Adopt ``other``'s chain when the fork-choice rule prefers it.

        Returns True when this node's view changed.  An adoption that
        discards local tip blocks is a reorg (counted in :attr:`reorgs`).
        """
        if not fork_choice.prefer(self.chain, other.chain):
            return False
        rolled_back, _applied = self.chain.reorg_to(list(other.chain.blocks))
        if rolled_back:
            self.reorgs += 1
        return True
