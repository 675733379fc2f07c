"""Acceptance test: partition -> divergent forks -> heal -> convergence.

Two miner groups, split by a timed partition window, each mine their own
fork of the ledger with their own reward history.  When the partition heals
the fork-choice rule (most cumulative work, seeded hash tie-break) must bring every
node onto one head, the adopted chain alone must say who earned what, and
the whole trajectory must be bit-deterministic across repeats.
"""

from __future__ import annotations

import json

import pytest

from repro.core import fairbfl
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.sim.rounds import EventRoundSimulator
from repro.store.records import history_to_payload

from paper_spec import paper_spec

pytestmark = pytest.mark.net

NUM_ROUNDS = 4
PARTITION = "1-2:0,1"  # rounds 1-2: miners {0,1} vs {2,3}


@pytest.fixture(scope="module")
def dataset():
    return build_federated_dataset(
        num_clients=6, num_samples=300, scheme="dirichlet", seed=7, noise_std=0.3
    )


def _spec(**overrides):
    params = dict(
        num_rounds=NUM_ROUNDS,
        participation=0.6,
        miners=4,
        topology="full",
        partition=PARTITION,
        seed=5,
    )
    params.update(overrides)
    return paper_spec(**params)


def _run(dataset, **overrides):
    trainer = FairBFLTrainer(dataset, _spec(**overrides))
    history = trainer.run()
    return trainer, history


def _reward_totals(blocks) -> dict[str, float]:
    """Reward per client over ``blocks``' reward transactions."""
    totals: dict[str, float] = {}
    for block in blocks:
        for record in block.reward_records():
            totals[record["client"]] = totals.get(record["client"], 0.0) + record["reward"]
    return totals


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

    def test_total_reorgs_is_the_nodes_own_count(self, healed):
        trainer, history = healed
        counted = sum(node.reorgs for node in trainer.net.nodes.values())
        assert counted >= 1
        assert history.rounds[-1].extras["net"]["total_reorgs"] == counted

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

    def test_reward_accounting_survives_the_reorg(self, dataset):
        # The canonical chain is the only balance, so the rewards minted on
        # the fork the heal discards are void: every reward ever minted
        # counts, less exactly those.
        trainer = FairBFLTrainer(dataset, _spec())
        trainer.run(num_rounds=3)  # round 0, then the split rounds 1-2
        forks = {node.head_hash: list(node.chain.blocks) for node in trainer.net.nodes.values()}
        assert len(forks) == 2
        trainer.run(num_rounds=1)  # the heal
        canonical = trainer.chain
        kept = {block.block_hash for block in canonical.blocks}
        minted = {b.block_hash: b for blocks in forks.values() for b in blocks}
        minted.update((b.block_hash, b) for b in canonical.blocks)
        void = [b for h, b in minted.items() if h not in kept]
        assert void and {b.round_index for b in void} <= {1, 2}
        void_rewards = _reward_totals(void)
        assert sum(void_rewards.values()) > 0.0
        balances = canonical.total_rewards_by_client()
        assert sum(balances.values()) > 0.0
        for client, total in _reward_totals(minted.values()).items():
            expected = total - void_rewards.get(client, 0.0)
            assert balances.get(client, 0.0) == pytest.approx(expected, abs=1e-12)

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
        assert sum(r["lost_uploads"] for r in net) >= 1
        assert trainer.chain.is_valid()


class TestOneRacePerComponent:
    def test_each_component_block_goes_to_its_best_ranked_online_member(
        self, dataset, monkeypatch
    ):
        """Partition, then churn: every component's block has the race's best signer.

        Seed 2 ranks the churned-out ``miner-3`` first in rounds 3 and 4, so
        a block handed to the round's overall winner would be signed offline.
        """
        rankings, settled = [], []
        real_round, real_mining = EventRoundSimulator.fairbfl_round, fairbfl.procedure_mining

        def spy_round(self, **kwargs):
            timing = real_round(self, **kwargs)
            rankings.append([f"miner-{k}" for k in timing.ranking])
            return timing

        def spy_mining(ctx, members, *args, **kwargs):
            result = real_mining(ctx, members, *args, **kwargs)
            signer = members[0].chain.last_block.header.miner_id  # every member appended it
            settled.append((ctx.round_index, [m.miner_id for m in members], signer))
            assert ctx.winning_miner == signer
            return result

        monkeypatch.setattr(EventRoundSimulator, "fairbfl_round", spy_round)
        monkeypatch.setattr(fairbfl, "procedure_mining", spy_mining)
        _trainer, history = _run(
            dataset, topology="ring", num_rounds=6, churn="3:-3;5:+3", seed=2
        )
        net = [record.extras["net"] for record in history.rounds]
        assert [rankings[r][0] for r in (3, 4)] == ["miner-3", "miner-3"]
        assert [len(n["components"]) for n in net] == [1, 2, 2, 1, 1, 1]
        assert [(r, members) for r, members, _ in settled] == [
            (r, component) for r, n in enumerate(net) for component in n["components"]
        ]
        for r, members, signer in settled:
            assert signer == next(mid for mid in rankings[r] if mid in members)
            assert signer in net[r]["online"]
        assert "miner-3" not in {signer for r, _, signer in settled if r in (3, 4)}


class TestPendingUploadsChainDisjoint:
    def test_no_gradient_set_holds_an_upload_of_a_committed_round(self, dataset, monkeypatch):
        """Partition -> heal -> churn, checked after every commit and every round start.

        A miner's gradient set is the only pool of pending uploads: at a
        round's start it is empty, and at a commit it holds that round's
        uploads alone.  Every online view must also stay valid, each mined
        header's signature included.
        """
        trainer = FairBFLTrainer(
            dataset,
            _spec(num_rounds=6, participation=1.0, churn="3:-3;5:+3"),
        )
        net = trainer.net
        seen = {"checks": 0, "offline": 0, "pending": 0}

        def check(round_index):
            seen["checks"] += 1
            seen["offline"] += len(net.nodes) - len(net.online_nodes())
            for miner in trainer.miners:
                stale = [
                    tx.round_index for tx in miner.gradient_set.values()
                    if tx.round_index < round_index
                ]
                assert not stale, miner.miner_id
            for node in net.online_nodes():
                assert node.chain.keystore is not None, node.node_id
                assert node.chain.is_valid(), node.node_id
                assert all(b.header.signature is not None for b in node.chain.blocks[1:])

        def checked(method):
            def wrapper(round_index, *args, **kwargs):
                if method.__name__ == "begin_round":
                    assert not any(m.gradient_set for m in trainer.miners)
                result = method(round_index, *args, **kwargs)
                if method.__name__ == "commit_block":
                    seen["pending"] += sum(len(m.gradient_set) for m in trainer.miners)
                check(round_index)
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
        assert not any(m.gradient_set for m in trainer.miners)
