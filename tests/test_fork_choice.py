"""Fork choice and reorg validation edges.

The most-work rule and the seeded hash tie-break that resolves equal-work
forks identically on every node, and the ``Blockchain.reorg_to`` validation
edges (duplicate insertion, a broken link, Merkle tampering on a reorged
candidate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain, BlockValidationError, ForkChoice
from repro.blockchain.transaction import make_gradient_transaction
from repro.net.node import Node

pytestmark = pytest.mark.net


def _chain(rounds=0, miner_id="m", transactions_for=None, difficulty=1.0):
    chain = Blockchain(enforce_pow=False)
    chain.add_genesis(Block.genesis())
    for r in range(rounds):
        txs = transactions_for(r) if transactions_for else []
        chain.add_block(
            Block.create(
                index=r + 1,
                previous_hash=chain.last_block.block_hash,
                round_index=r,
                miner_id=miner_id,
                transactions=txs,
                difficulty=difficulty,
            )
        )
    return chain


def _tx(client=0, round_index=0, value=1.0):
    return make_gradient_transaction(
        f"client-{client}", round_index, np.full(3, value)
    )


class TestForkChoice:
    def test_tie_break_deterministic_and_salt_sensitive(self):
        rule = ForkChoice(salt=7)
        digest = rule.tie_break("ab" * 32)
        assert digest == ForkChoice(salt=7).tie_break("ab" * 32)
        assert digest != ForkChoice(salt=8).tie_break("ab" * 32)
        assert digest != rule.tie_break("cd" * 32)

    def test_longer_chain_always_wins(self):
        rule = ForkChoice(salt=0)
        short, long = _chain(1, "a"), _chain(3, "b")
        assert rule.prefer(short, long)
        assert not rule.prefer(long, short)

    def test_more_work_beats_more_blocks(self):
        rule = ForkChoice(salt=0)
        hard, easy = _chain(2, "a", difficulty=16.0), _chain(5, "b", difficulty=4.0)
        assert hard.height < easy.height
        assert hard.total_work == 1 + 2 * 16 and easy.total_work == 1 + 5 * 4
        assert rule.prefer(easy, hard)
        assert not rule.prefer(hard, easy)
        assert rule.best([easy, hard]) is hard

    def test_equal_difficulties_order_by_height(self):
        for difficulty in (1.0, 16.0, 2.5):
            chains = [_chain(n, "m", difficulty=difficulty) for n in range(4)]
            works = [chain.total_work for chain in chains]
            assert works == sorted(set(works))
            assert ForkChoice(salt=0).best(reversed(chains)) is chains[-1]

    def test_equal_work_at_unequal_heights_goes_to_the_tie_break(self):
        rule = ForkChoice(salt=0)
        one_hard, two_easy = _chain(1, "a", difficulty=2.0), _chain(2, "b")
        assert one_hard.total_work == two_easy.total_work
        assert rule.prefer(one_hard, two_easy) != rule.prefer(two_easy, one_hard)
        winner = rule.best([one_hard, two_easy])
        assert winner is rule.best([two_easy, one_hard])
        loser = two_easy if winner is one_hard else one_hard
        assert rule.tie_break(winner.last_block.block_hash) < rule.tie_break(
            loser.last_block.block_hash
        )

    def test_equal_length_resolved_by_salted_digest(self):
        rule = ForkChoice(salt=0)
        a, b = _chain(2, "a"), _chain(2, "b")
        assert a.last_block.block_hash != b.last_block.block_hash
        forward = rule.prefer(a, b)
        backward = rule.prefer(b, a)
        # Exactly one direction prefers: the rule is a strict order on tips.
        assert forward != backward
        winner, loser = (b, a) if forward else (a, b)
        assert rule.tie_break(winner.last_block.block_hash) < rule.tie_break(
            loser.last_block.block_hash
        )

    def test_identical_tips_never_prefer(self):
        rule = ForkChoice(salt=0)
        a = _chain(2, "a")
        b = Blockchain(enforce_pow=False)
        b.blocks = list(a.blocks)
        assert not rule.prefer(a, b)

    def test_empty_chains(self):
        rule = ForkChoice(salt=0)
        empty, real = Blockchain(enforce_pow=False), _chain(1)
        assert rule.prefer(empty, real)
        assert not rule.prefer(real, empty)
        assert not rule.prefer(empty, Blockchain(enforce_pow=False))

    def test_best_picks_same_winner_in_any_order(self):
        rule = ForkChoice(salt=3)
        chains = [_chain(2, mid) for mid in ("a", "b", "c", "d")]
        winner = rule.best(chains)
        assert rule.best(reversed(chains)) is winner
        for chain in chains:
            if chain is not winner:
                assert rule.prefer(chain, winner)

    def test_best_requires_candidates(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            ForkChoice(salt=0).best([])

    def test_every_node_picks_the_same_equal_length_winner(self):
        # The substrate-level guarantee in miniature: nodes starting from
        # different views of an equal-length fork all adopt one tip.
        rule = ForkChoice(salt=11)
        fork_a, fork_b = _chain(2, "a"), _chain(2, "b")
        heads = set()
        for view in (fork_a, fork_b):
            best = rule.best([fork_a, fork_b])
            node = Node(node_id="n", chain=view.copy())
            node.sync_with(Node(node_id="peer", chain=best), rule)
            heads.add(node.head_hash)
        assert len(heads) == 1


class TestReorgEdges:
    def test_reorg_counts_rolled_back_and_applied(self):
        ours = _chain(2, "a")
        theirs = _chain(3, "b")
        rolled_back, applied = ours.reorg_to(list(theirs.blocks))
        assert (rolled_back, applied) == (2, 3)
        assert ours.last_block.block_hash == theirs.last_block.block_hash

    def test_reorg_pure_extension_is_not_a_fork_event(self):
        ours = _chain(1, "a")
        extended = Blockchain(enforce_pow=False)
        extended.blocks = list(ours.blocks)
        extended.add_block(
            Block.create(
                index=2,
                previous_hash=extended.last_block.block_hash,
                round_index=1,
                miner_id="a",
                transactions=[],
            )
        )
        rolled_back, applied = ours.reorg_to(list(extended.blocks))
        assert (rolled_back, applied) == (0, 1)

    def test_a_reorg_keeps_no_transaction_of_the_abandoned_fork(self):
        # The adopted chain is the whole record: what the abandoned fork
        # carried leaves the view, what the winner carried enters it.
        mine, theirs = _tx(client=0), _tx(client=1)
        ours = _chain(1, "a", transactions_for=lambda r: [mine])
        winner = _chain(2, "b", transactions_for=lambda r: [theirs] if r == 0 else [])
        assert ours.reorg_to(list(winner.blocks)) == (1, 2)
        held = {tx.tx_id for block in ours.blocks for tx in block.transactions}
        assert theirs.tx_id in held
        assert mine.tx_id not in held

    def test_a_node_counts_one_reorg_per_abandoned_fork(self):
        # ``Node.reorgs`` is the one reorg counter: each adoption that
        # discards local blocks adds one, a pure extension adds none.
        fork_choice = ForkChoice(salt=0)
        node = Node(node_id="n", chain=_chain(1, "a"))
        for rounds, miner_id in ((2, "b"), (3, "c")):
            donor = Node(node_id=miner_id, chain=_chain(rounds, miner_id))
            assert node.sync_with(donor, fork_choice)
        assert node.reorgs == 2
        extended = Blockchain(enforce_pow=False)
        extended.blocks = list(node.chain.blocks)
        extended.add_block(
            Block.create(
                index=extended.height,
                previous_hash=extended.last_block.block_hash,
                round_index=3,
                miner_id="c",
                transactions=[],
            )
        )
        assert node.sync_with(Node(node_id="d", chain=extended), fork_choice)
        assert node.reorgs == 2

    def test_reorg_rejects_empty_candidate(self):
        with pytest.raises(BlockValidationError, match="empty chain"):
            _chain(1).reorg_to([])

    def test_reorg_rejects_different_genesis(self):
        ours = _chain(1, "a")
        other = Blockchain(enforce_pow=False)
        other.add_genesis(Block.genesis(initial_global_update=_tx()))
        with pytest.raises(BlockValidationError, match="different genesis"):
            ours.reorg_to(list(other.blocks))

    def test_reorg_rejects_merkle_tampered_candidate(self):
        # The candidate fork carries a block whose transactions were swapped
        # after mining: full validation must catch the Merkle mismatch
        # *before* the local view is discarded.
        ours = _chain(1, "a")
        theirs = _chain(3, "b", transactions_for=lambda r: [_tx(client=r, round_index=r)])
        theirs.blocks[2].transactions[0] = _tx(client=9, round_index=1, value=99.0)
        height_before = ours.height
        with pytest.raises(BlockValidationError, match="Merkle"):
            ours.reorg_to(list(theirs.blocks))
        assert ours.height == height_before  # nothing was discarded

    def test_reorg_rejects_broken_link(self):
        ours = _chain(1, "a")
        theirs = _chain(3, "b")
        tampered = list(theirs.blocks)
        del tampered[2]  # hole in the chain
        with pytest.raises(BlockValidationError):
            ours.reorg_to(tampered)

    def test_duplicate_block_insertion_rejected(self):
        chain = _chain(2, "a")
        with pytest.raises(BlockValidationError, match="index"):
            chain.add_block(chain.blocks[-1])

    def test_block_before_its_parent_is_refused_until_the_parent_lands(self):
        donor = _chain(2, "b")
        parent, child = donor.blocks[1], donor.blocks[2]
        chain = _chain(0)
        assert chain.validate_candidate(child) is not None
        with pytest.raises(BlockValidationError):
            chain.add_block(child)
        assert chain.height == 1
        chain.add_block(parent)
        assert chain.validate_candidate(child) is None
        chain.add_block(child)
        assert chain.last_block.block_hash == donor.last_block.block_hash
        assert chain.is_valid()

    def test_sync_brings_in_blocks_whose_parents_the_node_never_saw(self):
        # Gossip moves whole chains: a node three blocks behind takes the
        # missing ancestry in order, with no pool of parked blocks.
        donor = Node(node_id="d", chain=_chain(3, "b"))
        node = Node(node_id="n", chain=_chain(0))
        assert node.sync_with(donor, ForkChoice(salt=0))
        assert node.chain.height == 4
        assert node.head_hash == donor.head_hash
        assert node.reorgs == 0
        assert node.chain.is_valid()
