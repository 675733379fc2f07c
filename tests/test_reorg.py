"""Acceptance test: partition -> divergent forks -> heal -> convergence.

Two miner groups, split by a timed partition window, each mine their own
fork of the ledger with their own reward history.  When the partition heals
the fork-choice rule (most cumulative work, seeded hash tie-break) must bring every
node onto one head, reward accounting must be rebuilt from the adopted
chain, and the whole trajectory must be bit-deterministic across repeats.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.store.records import history_to_payload

pytestmark = pytest.mark.net

NUM_ROUNDS = 4
PARTITION = "1-2:0,1"  # rounds 1-2: miners {0,1} vs {2,3}


@pytest.fixture(scope="module")
def dataset():
    return build_federated_dataset(
        num_clients=6, num_samples=300, scheme="dirichlet", seed=7, noise_std=0.3
    )


def _config(**overrides):
    params = dict(
        num_rounds=NUM_ROUNDS,
        participation_fraction=0.6,
        num_miners=4,
        topology="full",
        partition=PARTITION,
        seed=5,
    )
    params.update(overrides)
    return FairBFLConfig(**params)


def _run(dataset, **overrides):
    trainer = FairBFLTrainer(dataset, _config(**overrides))
    history = trainer.run()
    return trainer, history


@pytest.fixture(scope="module")
def healed(dataset):
    return _run(dataset)


class TestPartitionHeal:
    def test_partition_produces_divergent_views(self, healed):
        _trainer, history = healed
        net = [record.extras["net"] for record in history.rounds]
        assert not net[0]["partition_active"]
        for r in (1, 2):
            assert net[r]["partition_active"]
            assert len(net[r]["components"]) == 2
            assert net[r]["chain_views"] == 2  # each side holds its own head
            assert net[r]["consensus_resolved"] == {}  # no agreement mid-split

    def test_heal_reorgs_and_converges(self, healed):
        trainer, history = healed
        net = [record.extras["net"] for record in history.rounds]
        heal = net[3]
        assert heal["reorged"]  # the losing fork rolled back
        assert heal["total_reorgs"] >= 1
        assert heal["chain_views"] == 1
        # Every node ends on the same, fully valid head.
        assert trainer.net.chain_views() == 1
        tips = {node.head_hash for node in trainer.net.nodes.values()}
        assert len(tips) == 1
        assert trainer.chain.is_valid()

    def test_canonical_chain_has_one_block_per_round(self, healed):
        trainer, _history = healed
        chain = trainer.chain
        assert chain.height == 1 + NUM_ROUNDS
        assert [b.round_index for b in chain.blocks[1:]] == list(range(NUM_ROUNDS))

    def test_consensus_delay_stretches_across_the_partition(self, healed):
        _trainer, history = healed
        net = [record.extras["net"] for record in history.rounds]
        # Round 0 resolves within its own round, at gossip-hop latency.
        assert 0 in {int(k) for k in net[0]["consensus_resolved"]}
        baseline = float(net[0]["consensus_resolved"][0])
        # Rounds 1-2 only resolve at the heal, whole rounds later.
        resolved_at_heal = {int(k): float(v) for k, v in net[3]["consensus_resolved"].items()}
        assert {1, 2}.issubset(resolved_at_heal)
        assert resolved_at_heal[1] > resolved_at_heal[2] > baseline

    def test_reward_accounting_survives_the_reorg(self, healed):
        trainer, _history = healed
        on_chain: dict[int, float] = {}
        for label, amount in trainer.chain.total_rewards_by_client().items():
            cid = int(str(label).rpartition("-")[2])
            on_chain[cid] = on_chain.get(cid, 0.0) + float(amount)
        # Client balances and the ledger totals both equal the canonical
        # chain's record — the discarded fork's rewards are void.
        for cid, client in trainer.clients.items():
            assert client.total_reward == pytest.approx(on_chain.get(cid, 0.0))
        for cid, total in trainer.reward_ledger.totals.items():
            assert total == pytest.approx(on_chain.get(cid, 0.0))
        assert sum(on_chain.values()) > 0.0

    def test_deterministic_across_repeats(self, dataset, healed):
        _trainer, first_history = healed
        reference = json.dumps(history_to_payload(first_history), sort_keys=True)
        for _ in range(2):  # three runs total, counting the fixture's
            trainer, history = _run(dataset)
            assert json.dumps(history_to_payload(history), sort_keys=True) == reference
            assert trainer.chain.last_block.block_hash == _trainer.chain.last_block.block_hash


class TestChurnTrace:
    def test_departed_miner_rejoins_and_catches_up(self, dataset):
        trainer, history = _run(dataset, partition="none", churn="1:-3;3:+3")
        net = [record.extras["net"] for record in history.rounds]
        assert "miner-3" not in net[1]["online"]
        assert "miner-3" in net[3]["online"]
        # The rejoiner adopted the canonical chain at round 3's begin.
        assert trainer.net.chain_views() == 1
        assert trainer.net.nodes["miner-3"].chain.height == 1 + NUM_ROUNDS
        # Uploads addressed to the absent miner were lost, not silently kept.
        assert sum(r["lost_uploads"] for r in net) >= 0
        assert trainer.chain.is_valid()


class TestMempoolChainDisjoint:
    def test_no_mempool_holds_a_transaction_its_chain_includes(self, dataset, monkeypatch):
        """Partition -> heal -> churn, checked after every commit and every round start.

        ``commit_block`` expires whole rounds instead of scanning each chain
        for included ids; this is the invariant that makes that enough.  Every
        online view must also stay valid, each mined header's signature
        included.
        """
        trainer = FairBFLTrainer(
            dataset,
            _config(num_rounds=6, participation_fraction=1.0, churn="3:-3;5:+3"),
        )
        net = trainer.net
        seen = {"checks": 0, "offline": 0, "pending": 0}

        def check():
            seen["checks"] += 1
            seen["offline"] += len(net.nodes) - len(net.online_nodes())
            for node in net.online_nodes():
                included = {tx.tx_id for b in node.chain.blocks for tx in b.transactions}
                pending = {tx.tx_id for tx in node.mempool._queue}
                assert not pending & included, node.node_id
                assert node.chain.keystore is not None, node.node_id
                assert node.chain.is_valid(), node.node_id
                assert all(b.header.signature is not None for b in node.chain.blocks[1:])

        def checked(method):
            def wrapper(*args, **kwargs):
                if method.__name__ == "commit_block":
                    seen["pending"] += sum(n.mempool.pending_count for n in net.nodes.values())
                result = method(*args, **kwargs)
                check()
                return result

            return wrapper

        monkeypatch.setattr(net, "commit_block", checked(net.commit_block))
        monkeypatch.setattr(net, "begin_round", checked(net.begin_round))
        history = trainer.run()
        views = [record.extras["net"]["chain_views"] for record in history.rounds]
        assert max(views) > 1 and views[-1] == 1  # split, then healed
        assert net.total_reorgs > 0 and seen["offline"] > 0  # a reorg, and churn
        assert seen["pending"] > 0  # commits had uploads to settle
        assert seen["checks"] >= 2 * 6
        assert sum(n.mempool.pending_count for n in net.nodes.values()) == 0
