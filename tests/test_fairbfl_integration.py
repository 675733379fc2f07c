"""Integration tests: the FAIR-BFL orchestrator end to end.

These exercise the whole stack (data -> local SGD -> RSA-signed uploads ->
miner exchange -> clustering/incentive -> fair aggregation -> PoW block ->
replicated ledgers) at a miniature scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.transaction import TransactionType
from repro.core.fairbfl import FairBFLTrainer
from repro.core.flexibility import OperatingMode
from repro.datasets.federated import build_federated_dataset
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.sim.rounds import EventRoundSimulator


@pytest.fixture(scope="module")
def base():
    return ScenarioSpec(num_clients=6, num_samples=400, num_rounds=2, participation=0.6, seed=11)


@pytest.fixture(scope="module")
def dataset(base):
    return ExperimentEngine().dataset_for(base)


def _run(dataset, spec):
    trainer = FairBFLTrainer(dataset, spec)
    return trainer, trainer.run()


class TestFairBFLTrainer:
    def test_run_appends_one_block_per_round(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        trainer.run()
        # Genesis + one block per round (Assumption 2).
        assert trainer.chain.height == 1 + base.num_rounds
        rounds_on_chain = [b.round_index for b in trainer.chain.blocks[1:]]
        assert rounds_on_chain == list(range(base.num_rounds))

    def test_all_miner_replicas_identical(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        trainer.run()
        tips = {m.chain.last_block.block_hash for m in trainer.miners}
        assert len(tips) == 1
        assert all(m.chain.is_valid() for m in trainer.miners)

    def test_blocks_contain_global_update_and_rewards(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        trainer.run()
        block = trainer.chain.blocks[-1]
        types = {tx.tx_type for tx in block.transactions}
        assert TransactionType.GLOBAL_UPDATE in types
        assert TransactionType.REWARD in types
        assert block.global_update().shape == trainer.current_global_parameters().shape

    def test_proof_of_work_enforced_on_chain(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        trainer.run()
        from repro.crypto.hashing import difficulty_to_target, meets_target

        for block in trainer.chain.blocks[1:]:
            target = difficulty_to_target(block.header.difficulty)
            assert meets_target(block.block_hash, target)

    def test_history_records_delays_and_accuracy(self, dataset, base):
        _, history = _run(dataset, base)
        assert len(history) == base.num_rounds
        assert all(r.delay > 0 for r in history.rounds)
        assert all(0.0 <= r.accuracy <= 1.0 for r in history.rounds)
        assert all("delay_breakdown" in r.extras for r in history.rounds)
        assert np.all(np.diff(history.elapsed_times) > 0)

    def test_run_is_reproducible(self, dataset, base):
        spec = base
        _, h1 = _run(dataset, spec)
        _, h2 = _run(dataset, spec)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)
        np.testing.assert_allclose(h1.delays, h2.delays)

    def test_rewards_recorded_and_credited(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        trainer.run()
        on_chain = trainer.chain.total_rewards_by_client()
        assert sum(on_chain.values()) > 0.0
        # Without a reorg the chain credits exactly the rounds' reward lists.
        recorded = trainer.history.total_rewards()
        assert on_chain == pytest.approx({f"client-{c}": v for c, v in recorded.items()})

    def test_each_round_s_block_carries_its_recorded_rewards(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        history = trainer.run()
        blocks = trainer.chain.blocks[1:]
        assert len(blocks) == len(history.rounds)
        for record, block in zip(history.rounds, blocks):
            assert block.round_index == record.round_index
            on_block = {r["client"]: r["reward"] for r in block.reward_records()}
            assert on_block == pytest.approx(
                {f"client-{cid}": v for cid, v in record.rewards.items()}
            )

    def test_only_a_round_s_participants_earn_its_rewards(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        history = trainer.run()
        for record in history.rounds:
            assert record.rewards
            assert set(record.rewards) <= set(record.participants)

    def test_global_test_accuracy_improves(self, dataset, base):
        spec = base.with_overrides(num_rounds=6, participation=1.0)
        trainer = FairBFLTrainer(dataset, spec)
        initial = trainer.global_test_accuracy()
        trainer.run()
        assert trainer.global_test_accuracy() > initial

    def test_signature_verification_rejects_unregistered(self, dataset, base):
        trainer = FairBFLTrainer(dataset, base)
        record = trainer.run_round(0)
        assert record.extras["rejected_uploads"] == 0

    def test_without_signatures_and_without_pow(self, dataset, base):
        spec = base.with_overrides(verify_signatures=False, use_real_pow=False)
        trainer, history = _run(dataset, spec)
        assert len(history) == base.num_rounds
        assert trainer.chain.height == 1 + base.num_rounds


@pytest.mark.ledger
class TestOneMiningRace:
    """One race per round: the event kernel's first solve signs the block."""

    @pytest.mark.parametrize("miners", [2, 4, 8])
    def test_the_first_solve_signs_every_block(self, dataset, base, miners, monkeypatch):
        kernels, rankings = [], []
        real_kernel, real_round = EventRoundSimulator._kernel, EventRoundSimulator.fairbfl_round

        def spy_kernel(self):
            kernels.append(real_kernel(self))
            return kernels[-1]

        def spy_round(self, **kwargs):
            timing = real_round(self, **kwargs)
            rankings.append(timing.ranking)
            return timing

        monkeypatch.setattr(EventRoundSimulator, "_kernel", spy_kernel)
        monkeypatch.setattr(EventRoundSimulator, "fairbfl_round", spy_round)
        rounds = 8
        trainer, history = _run(dataset, base.with_overrides(miners=miners, num_rounds=rounds))
        # The first solve cancels the rest, so each round's trace fires one.
        solved = [[name for _t, name in k.trace if name.endswith(":pow-solve")] for k in kernels]
        assert [len(names) for names in solved] == [1] * rounds
        race = [names[0].removesuffix(":pow-solve") for names in solved]
        assert all(sorted(ranking) == list(range(miners)) for ranking in rankings)
        assert [f"miner-{ranking[0]}" for ranking in rankings] == race
        assert [block.header.miner_id for block in trainer.chain.blocks[1:]] == race
        assert [record.extras["winning_miner"] for record in history.rounds] == race


class TestOperatingModes:
    def test_fl_only_mode_produces_no_new_blocks(self, dataset, base):
        spec = base.with_overrides(mode="fl_only")
        trainer, history = _run(dataset, spec)
        assert trainer.chain.height == 1  # genesis only
        assert all(r.extras["delay_breakdown"]["t_bl"] == 0.0 for r in history.rounds)
        assert all(r.accuracy > 0.0 for r in history.rounds)

    def test_fl_only_mode_still_learns(self, dataset, base):
        spec = base.with_overrides(mode="fl_only", num_rounds=5, participation=1.0)
        trainer, history = _run(dataset, spec)
        assert history.accuracies[-1] > history.accuracies[0]

    def test_chain_only_mode_mines_but_does_not_learn(self, dataset, base):
        spec = base.with_overrides(mode="chain_only")
        trainer, history = _run(dataset, spec)
        assert trainer.chain.height == 1 + base.num_rounds
        assert all(r.extras["delay_breakdown"]["t_local"] == 0.0 for r in history.rounds)
        assert all(r.accuracy == 0.0 for r in history.rounds)

    def test_mode_delay_ordering(self, dataset, base):
        """Flexibility claim: FL-only < full BFL in delay; chain-only has no learning delay."""
        num_rounds = 4
        _, h_bfl = _run(dataset, base.with_overrides(num_rounds=num_rounds))
        _, h_fl = _run(
            dataset, base.with_overrides(num_rounds=num_rounds, mode="fl_only")
        )
        assert h_fl.average_delay() < h_bfl.average_delay()


class TestDiscardStrategyAndAttacks:
    def test_discard_strategy_runs_and_logs(self, dataset, base):
        spec = base.with_overrides(strategy="discard", num_rounds=3)
        trainer, history = _run(dataset, spec)
        assert len(history) == 3
        # Discarded clients never appear among the same round's reward recipients.
        for record in history.rounds:
            assert not (set(record.discarded) & set(record.rewards.keys()))

    def test_attacks_designated_and_mostly_detected(self, base):
        dataset = build_federated_dataset(
            num_clients=10, num_samples=600, scheme="dirichlet", seed=3, noise_std=0.3
        )
        spec = ScenarioSpec(
            num_rounds=5,
            participation=1.0,
            epochs=2,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            strategy="discard",
            attacks=True,
            dbscan_eps=0.7,
            seed=5,
        ).validate()
        trainer, history = _run(dataset, spec)
        logs = trainer.detection_logs()
        assert len(logs) == 5
        assert all(1 <= len(log.attacker_ids) <= 3 for log in logs)
        # The clustering-based detector catches a majority of attackers overall.
        assert trainer.average_detection_rate() >= 0.5
        # Attackers recorded in history match the scheduler logs.
        for record, log in zip(history.rounds, logs):
            assert record.attackers == log.attacker_ids

    def test_attack_damages_accuracy_without_discard(self, base):
        dataset = build_federated_dataset(
            num_clients=10, num_samples=600, scheme="dirichlet", seed=3, noise_std=0.3
        )
        base = ScenarioSpec(
            num_rounds=5,
            participation=1.0,
            epochs=2,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            seed=5,
        ).validate()
        _, clean = _run(dataset, base)
        _, attacked = _run(
            dataset, base.with_overrides(attacks=True, attack_name="scaling", strategy="keep")
        )
        _, defended = _run(
            dataset, base.with_overrides(attacks=True, attack_name="scaling", strategy="discard")
        )
        # Undefended poisoning hurts; the discard strategy recovers most of the loss.
        assert attacked.final_accuracy() < clean.final_accuracy()
        assert defended.final_accuracy() >= attacked.final_accuracy()


class TestExperimentHelpers:
    def test_low_quality_fraction_corrupts_clients(self):
        clean = build_federated_dataset(num_clients=6, num_samples=400, seed=2)
        noisy = build_federated_dataset(
            num_clients=6, num_samples=400, seed=2, low_quality_fraction=0.5
        )
        differing = sum(
            int(not np.array_equal(a.labels, b.labels))
            for a, b in zip(clean.clients, noisy.clients)
        )
        assert differing == 3
