"""Tests for the attack models, the attack scheduler, and the timing simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import NoAttack
from repro.attacks.gradient_attacks import (
    GaussianNoiseAttack,
    ScalingAttack,
    SignFlipAttack,
    ZeroGradientAttack,
    make_attack,
)
from repro.attacks.label_flip import LabelFlipAttack
from repro.attacks.scheduler import AttackRoundLog, AttackScheduler, detection_rate
from repro.blockchain.consensus import ForkModel
from repro.fl.client import ClientUpdate
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.sim.delay import DelayModel, DelayParameters, RoundDelayBreakdown
from repro.sim.rounds import EventRoundSimulator
from repro.sim.vanilla_blockchain import VanillaBlockchainSimulator
from repro.utils.rng import new_rng

from delay_oracles import AnalyticDelayModel, kernel_vanilla_round, sample_fork_delay


def _update(direction=None, dim=8):
    params = np.ones(dim) if direction is None else np.asarray(direction, dtype=float)
    return ClientUpdate(client_id=0, parameters=params, train_loss=0.1)


GLOBAL = np.zeros(8)


class TestGradientAttacks:
    def test_sign_flip_reverses_direction(self):
        forged = SignFlipAttack().apply(_update(), new_rng(0, "a"), global_parameters=GLOBAL)
        np.testing.assert_allclose(forged.parameters, -np.ones(8))

    def test_sign_flip_with_scale(self):
        forged = SignFlipAttack(scale=2.0).apply(_update(), new_rng(0, "a"), global_parameters=GLOBAL)
        np.testing.assert_allclose(forged.parameters, -2 * np.ones(8))

    def test_sign_flip_without_global(self):
        forged = SignFlipAttack().apply(_update(), new_rng(0, "a"))
        np.testing.assert_allclose(forged.parameters, -np.ones(8))

    def test_scaling_attack_amplifies(self):
        forged = ScalingAttack(factor=5.0).apply(_update(), new_rng(0, "a"), global_parameters=GLOBAL)
        np.testing.assert_allclose(forged.parameters, 5 * np.ones(8))

    def test_gaussian_noise_preserves_norm(self):
        honest = _update()
        forged = GaussianNoiseAttack(std=1.0).apply(honest, new_rng(0, "a"), global_parameters=GLOBAL)
        assert np.linalg.norm(forged.parameters) == pytest.approx(
            np.linalg.norm(honest.parameters), rel=1e-6
        )
        assert not np.allclose(forged.parameters, honest.parameters)

    def test_zero_gradient_returns_global(self):
        forged = ZeroGradientAttack().apply(_update(), new_rng(0, "a"), global_parameters=np.full(8, 3.0))
        np.testing.assert_allclose(forged.parameters, np.full(8, 3.0))

    def test_zero_gradient_without_global(self):
        forged = ZeroGradientAttack().apply(_update(), new_rng(0, "a"))
        np.testing.assert_allclose(forged.parameters, np.zeros(8))

    def test_attacks_do_not_mutate_original(self):
        honest = _update()
        SignFlipAttack().apply(honest, new_rng(0, "a"), global_parameters=GLOBAL)
        np.testing.assert_allclose(honest.parameters, np.ones(8))

    def test_no_attack_is_identity(self):
        honest = _update()
        assert NoAttack().apply(honest, new_rng(0, "a")) is honest

    def test_factory(self):
        assert isinstance(make_attack("sign_flip"), SignFlipAttack)
        assert isinstance(make_attack("scaling"), ScalingAttack)
        assert isinstance(make_attack("gaussian_noise"), GaussianNoiseAttack)
        assert isinstance(make_attack("zero_gradient"), ZeroGradientAttack)
        assert isinstance(make_attack("none"), NoAttack)
        with pytest.raises(ValueError):
            make_attack("backdoor")

    def test_validation(self):
        with pytest.raises(ValueError):
            SignFlipAttack(scale=0.0)
        with pytest.raises(ValueError):
            ScalingAttack(factor=-1.0)
        with pytest.raises(ValueError):
            GaussianNoiseAttack(std=-0.1)


class TestLabelFlip:
    def test_direction_space_approximation(self):
        forged = LabelFlipAttack().apply(_update(), new_rng(0, "lf"), global_parameters=GLOBAL)
        assert forged.parameters.shape == (8,)

    def test_without_global_parameters_negates(self):
        forged = LabelFlipAttack().apply(_update(np.arange(8.0)), new_rng(0, "lf"))
        np.testing.assert_array_equal(forged.parameters, -np.arange(8.0))

    def test_forged_direction_opposes_the_honest_one(self):
        honest = np.linspace(-1.0, 2.0, 64)
        forged = LabelFlipAttack().apply(
            _update(honest), new_rng(0, "lf"), global_parameters=np.zeros(64)
        )
        cosine = forged.parameters @ honest / (
            np.linalg.norm(forged.parameters) * np.linalg.norm(honest)
        )
        # Anti-correlated, but not the mirror image a sign flip would upload.
        assert -1.0 + 1e-3 < cosine < 0.0

    def test_forgery_is_seeded_and_leaves_the_honest_update_alone(self):
        honest = _update(np.arange(8.0))
        first = LabelFlipAttack().apply(honest, new_rng(4, "lf"), global_parameters=GLOBAL)
        second = LabelFlipAttack().apply(honest, new_rng(4, "lf"), global_parameters=GLOBAL)
        np.testing.assert_array_equal(first.parameters, second.parameters)
        np.testing.assert_array_equal(honest.parameters, np.arange(8.0))


class TestAttackScheduler:
    def test_designate_within_bounds(self):
        sched = AttackScheduler(min_attackers=1, max_attackers=3)
        rng = new_rng(0, "sched")
        for _ in range(20):
            attackers = sched.designate(list(range(10)), rng)
            assert 1 <= len(attackers) <= 3
            assert all(a in range(10) for a in attackers)

    def test_designate_empty_pool(self):
        sched = AttackScheduler()
        assert sched.designate([], new_rng(0, "s")) == []

    def test_designate_caps_at_pool_size(self):
        sched = AttackScheduler(min_attackers=3, max_attackers=3)
        attackers = sched.designate([5, 9], new_rng(0, "s"))
        assert len(attackers) == 2

    def test_record_and_average(self):
        sched = AttackScheduler()
        sched.record_round(0, [1, 2], [2])
        sched.record_round(1, [3], [3])
        sched.record_round(2, [], [])
        assert sched.average_detection_rate() == pytest.approx((0.5 + 1.0) / 2)

    def test_round_log_properties(self):
        log = AttackRoundLog(round_index=0, attacker_ids=[1, 2, 3], dropped_ids=[2, 3, 7])
        assert log.detected == [2, 3]
        assert log.detection_rate == pytest.approx(2 / 3)
        assert log.false_positives == [7]

    def test_detection_rate_no_attacks(self):
        assert detection_rate([]) == 1.0
        assert AttackRoundLog(0, [], []).detection_rate == 1.0


class TestDelayModel:
    @pytest.fixture()
    def model(self):
        # The shipped samplers plus the closed forms' own (upload, exchange).
        return AnalyticDelayModel(DelayParameters(), new_rng(0, "delay"))

    def test_breakdown_total(self):
        b = RoundDelayBreakdown(t_local=1.0, t_up=2.0, t_ex=0.5, t_gl=0.25, t_bl=3.0)
        assert b.total == pytest.approx(6.75)
        assert b.as_dict()["total"] == pytest.approx(6.75)

    def test_local_training_scales_with_batches(self, model):
        short = np.mean([model.local_training_delay(5, 2, 1) for _ in range(200)])
        long = np.mean([model.local_training_delay(5, 20, 5) for _ in range(200)])
        assert long > short

    def test_zero_participants_zero_delay(self, model):
        assert model.local_training_delay(0, 10, 5) == 0.0
        assert model.upload_delay(0) == 0.0

    def test_upload_delay_grows_with_participants(self, model):
        few = np.mean([model.upload_delay(2) for _ in range(300)])
        many = np.mean([model.upload_delay(60) for _ in range(300)])
        assert many > few

    def test_exchange_delay(self, model):
        assert model.exchange_delay(1) == 0.0
        assert model.exchange_delay(5) > model.exchange_delay(2)

    def test_mining_delay_positive(self, model):
        assert model.mining_delay(2) > 0.0

    def test_fairbfl_round_has_all_components(self, model):
        b = EventRoundSimulator(model.params, model.rng).fairbfl_round(
            client_ids=10, num_miners=2, batches_per_epoch=5, epochs=5
        ).breakdown
        assert b.t_local > 0 and b.t_up > 0 and b.t_ex > 0 and b.t_gl > 0 and b.t_bl > 0

    def test_fl_round_has_no_chain_components(self, model):
        b = model.fl_round(num_participants=10, batches_per_epoch=5, epochs=5)
        assert b.t_ex == 0.0 and b.t_bl == 0.0
        assert b.t_local > 0 and b.t_up > 0

    def test_vanilla_round_queueing_adds_blocks(self):
        params = DelayParameters(transactions_per_block=10)
        kernel = EventRoundSimulator(params, new_rng(1, "delay"))
        few = np.mean(
            [kernel_vanilla_round(kernel, num_transactions=5, num_miners=2).breakdown.t_bl for _ in range(200)]
        )
        many = np.mean(
            [kernel_vanilla_round(kernel, num_transactions=50, num_miners=2).breakdown.t_bl for _ in range(200)]
        )
        assert many > 3 * few

    def test_ordering_fedavg_fair_blockchain(self):
        """The headline ordering of Fig. 4a: FedAvg < FAIR-BFL < vanilla blockchain."""
        params = DelayParameters()
        model = DelayModel(params, new_rng(2, "delay"))
        kernel = EventRoundSimulator(params, model.rng)
        fl = np.mean(
            [model.fl_round(num_participants=10, batches_per_epoch=5, epochs=5).total for _ in range(300)]
        )
        fair = np.mean(
            [
                kernel.fairbfl_round(
                    client_ids=10, num_miners=2, batches_per_epoch=5, epochs=5
                ).breakdown.total
                for _ in range(300)
            ]
        )
        chain = np.mean(
            [
                kernel_vanilla_round(kernel, num_transactions=100, num_miners=2).breakdown.total
                for _ in range(300)
            ]
        )
        assert fl < fair < chain

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DelayParameters(compute_time_per_batch=0.0)
        with pytest.raises(ValueError):
            DelayParameters(block_interval=0.0)
        with pytest.raises(ValueError):
            DelayParameters(transactions_per_block=0)


class TestForkModel:
    def test_sample_fork_delay(self):
        fm = ForkModel(base_fork_probability=0.5, merge_cost=2.0)
        rng = new_rng(0, "fork")
        forks, delay = sample_fork_delay(fm, rng, 10)
        assert forks >= 0
        assert delay >= 0.0
        assert sample_fork_delay(fm, rng, 1) == (0, 0.0)

    def test_mean_fork_delay_grows_with_miners(self):
        fm = ForkModel(base_fork_probability=0.1, merge_cost=3.0)
        rng = new_rng(1, "fork")
        small = np.mean([sample_fork_delay(fm, rng, 2)[1] for _ in range(2000)])
        large = np.mean([sample_fork_delay(fm, rng, 10)[1] for _ in range(2000)])
        assert large > small

    def test_validation(self):
        with pytest.raises(ValueError):
            ForkModel(base_fork_probability=1.5)
        with pytest.raises(ValueError):
            ForkModel(merge_cost=-1.0)


class TestVanillaBlockchainSimulator:
    def test_run_produces_history_and_blocks(self):
        spec = ScenarioSpec(system="blockchain", num_clients=12, miners=2, num_rounds=3, seed=0)
        sim = VanillaBlockchainSimulator(spec)
        history = sim.run()
        assert len(history) == 3
        assert all(r.delay > 0 for r in history.rounds)
        # The genesis block plus every block the rounds mined (at least one each).
        mined = [r.extras["blocks_mined"] for r in history.rounds]
        assert min(mined) >= 1
        assert sim.chain_height == 1 + sum(mined)
        assert history.rounds[-1].extras["chain_height"] == sim.chain_height

    def test_block_size_limit_forces_multiple_blocks(self):
        params = DelayParameters(transactions_per_block=5)
        spec = ScenarioSpec(system="blockchain", num_clients=12, miners=2, num_rounds=1, seed=0)
        sim = VanillaBlockchainSimulator(spec, delay_params=params)
        history = sim.run()
        assert history.rounds[0].extras["blocks_mined"] >= 3

    def test_delay_grows_with_workers(self):
        def avg_delay(n):
            spec = ScenarioSpec(system="blockchain", num_clients=n, miners=2, num_rounds=5, seed=1)
            return VanillaBlockchainSimulator(spec).run().average_delay()

        assert avg_delay(150) > avg_delay(10)

    def test_config_validation(self):
        with pytest.raises(ScenarioError, match="num_clients"):
            ScenarioSpec(system="blockchain", num_clients=0).validate()
        with pytest.raises(ScenarioError, match="num_rounds"):
            ScenarioSpec(system="blockchain", num_rounds=0).validate()
        with pytest.raises(ScenarioError, match="miners"):
            ScenarioSpec(system="blockchain", miners=0).validate()


@given(st.integers(1, 40), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_delay_breakdown_nonnegative_property(participants, miners):
    """Property: every sampled delay component is non-negative and the total adds up."""
    kernel = EventRoundSimulator(DelayParameters(), new_rng(participants * 10 + miners, "prop"))
    b = kernel.fairbfl_round(
        client_ids=participants, num_miners=miners, batches_per_epoch=3, epochs=2
    ).breakdown
    parts = [b.t_local, b.t_up, b.t_ex, b.t_gl, b.t_bl]
    assert all(p >= 0 for p in parts)
    assert b.total == pytest.approx(sum(parts))
