"""Tests for the FL substrate: client, aggregation, selection, server, FedAvg, FedProx, history."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import (
    contribution_weights,
    fair_aggregate,
    simple_average,
    weighted_average,
)
from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.fedavg import FedAvgTrainer
from repro.fl import trainer as trainer_module
from repro.fl.fedprox import FedProxTrainer
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.selection import ContributionBasedSelector, RandomSelector
from repro.fl.server import CentralServer
from repro.nn.models import LogisticRegressionModel
from repro.nn.parameters import get_flat_parameters
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.utils.rng import new_rng


class TestLocalTrainingConfig:
    def test_defaults_match_paper(self):
        cfg = LocalTrainingConfig()
        assert cfg.epochs == 5
        assert cfg.batch_size == 10
        assert cfg.learning_rate == pytest.approx(0.01)


class TestFLClient:
    @pytest.fixture()
    def client(self, tiny_federated):
        shard = tiny_federated.client(0)
        factory = lambda: LogisticRegressionModel(784, 10, new_rng(0, "client-model"))
        return FLClient(shard, ModelWorkspace(factory), new_rng(0, "client-rng"))

    def test_local_update_returns_new_parameters(self, client):
        global_params = get_flat_parameters(client.model)
        update = client.local_update(
            global_params, LocalTrainingConfig(epochs=1, learning_rate=0.05), client.draw_orders(1)
        )
        assert update.parameters.shape == global_params.shape
        assert not np.allclose(update.parameters, global_params)
        assert update.client_id == 0
        assert update.train_loss > 0.0

    def test_local_update_reduces_loss(self, client):
        global_params = get_flat_parameters(client.model)
        cfg1 = LocalTrainingConfig(epochs=1, learning_rate=0.05)
        cfg5 = LocalTrainingConfig(epochs=5, learning_rate=0.05)
        loss_short = client.local_update(global_params, cfg1, client.draw_orders(1)).train_loss
        loss_long = client.local_update(global_params, cfg5, client.draw_orders(5)).train_loss
        assert loss_long < loss_short

    def test_proximal_term_keeps_update_closer(self, client):
        global_params = get_flat_parameters(client.model)
        plain = client.local_update(
            global_params, LocalTrainingConfig(epochs=3, learning_rate=0.1), client.draw_orders(3)
        )
        prox = client.local_update(
            global_params,
            LocalTrainingConfig(epochs=3, learning_rate=0.1, proximal_mu=1.0),
            client.draw_orders(3),
        )
        dist_plain = np.linalg.norm(plain.parameters - global_params)
        dist_prox = np.linalg.norm(prox.parameters - global_params)
        assert dist_prox < dist_plain

    def test_evaluate_bounds(self, client):
        acc = client.evaluate(get_flat_parameters(client.model))
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("model_name", ["logreg", "mlp"])
    def test_mean_accuracy_loads_once_to_per_client_floats(
        self, tiny_federated, model_name, monkeypatch
    ):
        spec = ScenarioSpec(num_clients=6, num_samples=400, model_name=model_name, seed=7)
        trainer = FedAvgTrainer(tiny_federated, spec)
        ids = [4, 0, 5, 2]
        size = get_flat_parameters(trainer._workspace.model()).size
        vector = new_rng(3, "vector").normal(size=size)
        loads, scores = [], []
        load, evaluate = trainer_module.set_flat_parameters, FLClient.evaluate

        def count_load(*args):
            loads.append(args)
            return load(*args)

        def keep_score(*args, **kwargs):
            scores.append(evaluate(*args, **kwargs))
            return scores[-1]

        monkeypatch.setattr(trainer_module, "set_flat_parameters", count_load)
        monkeypatch.setattr(FLClient, "evaluate", keep_score)
        got = trainer.mean_accuracy(ids, vector)
        monkeypatch.undo()
        assert len(loads) == 1
        per_client = [trainer.clients[cid].evaluate(vector) for cid in ids]
        assert np.array(scores).tobytes() == np.array(per_client).tobytes()
        assert got == float(np.mean(per_client))
        assert len(set(per_client)) > 1  # distinct splits, not one score repeated

    def test_copy_with_parameters(self):
        upd = ClientUpdate(client_id=3, parameters=np.zeros(4), train_loss=0.5)
        clone = upd.copy_with_parameters(np.ones(4))
        assert clone.client_id == 3
        np.testing.assert_array_equal(clone.parameters, np.ones(4))
        np.testing.assert_array_equal(upd.parameters, np.zeros(4))


@pytest.mark.aggregation
class TestAggregation:
    def test_simple_average(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(simple_average(m), [2.0, 3.0])

    def test_simple_average_rejects_empty(self):
        with pytest.raises(ValueError):
            simple_average(np.zeros((0, 3)))

    def test_weighted_average(self):
        m = np.array([[0.0, 0.0], [10.0, 10.0]])
        np.testing.assert_allclose(weighted_average(m, np.array([1.0, 3.0])), [7.5, 7.5])

    def test_weighted_average_normalises(self):
        m = np.array([[2.0], [4.0]])
        np.testing.assert_allclose(
            weighted_average(m, np.array([2.0, 2.0])), weighted_average(m, np.array([0.5, 0.5]))
        )

    def test_weighted_average_validation(self):
        m = np.ones((2, 2))
        with pytest.raises(ValueError):
            weighted_average(m, np.array([1.0]))
        with pytest.raises(ValueError):
            weighted_average(m, np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            weighted_average(m, np.array([0.0, 0.0]))

    def test_contribution_weights_normalised(self):
        w = contribution_weights(np.array([1.0, 3.0]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_contribution_weights_zero_fallback_uniform(self):
        np.testing.assert_allclose(contribution_weights(np.zeros(4)), np.full(4, 0.25))

    def test_contribution_weights_rejects_negative(self):
        with pytest.raises(ValueError):
            contribution_weights(np.array([-1.0, 1.0]))

    def test_fair_aggregate_matches_manual(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        thetas = np.array([0.2, 0.8])
        expected = 0.2 * m[0] + 0.8 * m[1]
        np.testing.assert_allclose(fair_aggregate(m, thetas), expected)

    def test_fair_aggregate_equal_thetas_is_simple_average(self):
        m = np.random.default_rng(0).normal(size=(5, 7))
        np.testing.assert_allclose(
            fair_aggregate(m, np.full(5, 0.3)), simple_average(m), atol=1e-12
        )


class TestSelection:
    def test_random_selector_count(self):
        sel = RandomSelector(0.1)
        assert sel.num_selected(100) == 10
        assert sel.num_selected(5) == 1

    def test_random_selector_bounds(self):
        sel = RandomSelector(0.3)
        chosen = sel.select(20, new_rng(0, "sel"))
        assert len(chosen) == 6
        assert len(set(chosen.tolist())) == 6
        assert chosen.min() >= 0 and chosen.max() < 20

    def test_random_selector_validation(self):
        with pytest.raises(ValueError):
            RandomSelector(0.5).num_selected(0)

    def test_contribution_selector_excludes_once(self):
        sel = ContributionBasedSelector(1.0)
        sel.exclude_for_next_round([0, 1, 2])
        first = sel.select(10, new_rng(0, "sel"))
        assert not ({0, 1, 2} & set(first.tolist()))
        # Exclusion lasts exactly one round.
        second = sel.select(10, new_rng(1, "sel"))
        assert len(second) == 10

    def test_contribution_selector_shrinks_population(self):
        sel = ContributionBasedSelector(1.0)
        sel.exclude_for_next_round([4, 5, 6])
        chosen = sel.select(10, new_rng(2, "sel"))
        assert len(chosen) == 7

    def test_contribution_selector_all_excluded_falls_back(self):
        sel = ContributionBasedSelector(1.0)
        sel.exclude_for_next_round(list(range(5)))
        chosen = sel.select(5, new_rng(3, "sel"))
        assert len(chosen) >= 1


@pytest.mark.aggregation
class TestCentralServer:
    def _factory(self):
        return lambda: LogisticRegressionModel(784, 10, new_rng(0, "server-model"))

    def test_aggregate_simple(self):
        server = CentralServer(self._factory())
        dim = server.global_parameters.shape[0]
        updates = [
            ClientUpdate(0, np.zeros(dim), 0.0),
            ClientUpdate(1, np.ones(dim), 0.0),
        ]
        new = server.aggregate(updates)
        np.testing.assert_allclose(new, np.full(dim, 0.5))

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            CentralServer(self._factory()).aggregate([])

    def test_evaluate_returns_probability(self, tiny_federated):
        server = CentralServer(self._factory())
        acc = server.evaluate(tiny_federated.test_images, tiny_federated.test_labels)
        assert 0.0 <= acc <= 1.0


class TestHistory:
    def _record(self, i, delay=1.0, acc=0.5):
        return RoundRecord(round_index=i, delay=delay, accuracy=acc, elapsed_time=(i + 1) * delay)

    def test_append_and_series(self):
        hist = TrainingHistory(label="x")
        for i in range(3):
            hist.append(self._record(i, delay=2.0, acc=0.1 * i))
        assert len(hist) == 3
        np.testing.assert_allclose(hist.delays, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(hist.accuracies, [0.0, 0.1, 0.2])
        assert hist.average_delay() == pytest.approx(2.0)
        assert hist.average_accuracy() == pytest.approx(0.1)

    def test_append_requires_increasing_rounds(self):
        hist = TrainingHistory()
        hist.append(self._record(0))
        with pytest.raises(ValueError):
            hist.append(self._record(0))

    def test_running_average_delay(self):
        hist = TrainingHistory()
        hist.append(self._record(0, delay=2.0))
        hist.append(self._record(1, delay=4.0))
        np.testing.assert_allclose(hist.running_average_delay(), [2.0, 3.0])

    def test_final_accuracy_window(self):
        hist = TrainingHistory()
        for i, acc in enumerate([0.1, 0.2, 0.9, 0.9, 0.9]):
            hist.append(self._record(i, acc=acc))
        assert hist.final_accuracy(window=3) == pytest.approx(0.9)

    def test_time_to_accuracy(self):
        hist = TrainingHistory()
        for i, acc in enumerate([0.1, 0.5, 0.8]):
            hist.append(self._record(i, delay=1.0, acc=acc))
        assert hist.time_to_accuracy(0.5) == pytest.approx(2.0)
        assert hist.time_to_accuracy(0.99) is None

    def test_total_rewards(self):
        hist = TrainingHistory()
        r = self._record(0)
        r.rewards = {1: 0.5, 2: 0.25}
        hist.append(r)
        r2 = self._record(1)
        r2.rewards = {1: 0.5}
        hist.append(r2)
        assert hist.total_rewards() == {1: 1.0, 2: 0.25}

    def test_empty_history_defaults(self):
        hist = TrainingHistory()
        assert hist.average_delay() == 0.0
        assert hist.average_accuracy() == 0.0
        assert hist.final_accuracy() == 0.0
        assert hist.running_average_delay().shape == (0,)


class TestFedAvgTrainer:
    @pytest.fixture(scope="class")
    def small_spec(self):
        return ScenarioSpec(
            system="fedavg",
            num_rounds=2,
            participation=0.5,
            epochs=1,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            seed=3,
        ).validate()

    def test_run_produces_history(self, tiny_federated, small_spec):
        trainer = FedAvgTrainer(tiny_federated, small_spec)
        history = trainer.run()
        assert len(history) == 2
        assert history.label == "fedavg"
        assert all(r.delay > 0 for r in history.rounds)
        assert all(0.0 <= r.accuracy <= 1.0 for r in history.rounds)
        assert all(len(r.participants) == 3 for r in history.rounds)

    def test_participants_are_the_clients_that_trained(
        self, tiny_federated, small_spec, monkeypatch
    ):
        # ``RoundRecord.participants`` is the one record of who took part.
        trained = []
        real_local_update = FLClient.local_update

        def counting(client, *args, **kwargs):
            trained.append(client.client_id)
            return real_local_update(client, *args, **kwargs)

        monkeypatch.setattr(FLClient, "local_update", counting)
        history = FedAvgTrainer(tiny_federated, small_spec).run()
        assert trained == [cid for r in history.rounds for cid in r.participants]
        assert len(trained) == 2 * 3

    def test_elapsed_time_monotonic(self, tiny_federated, small_spec):
        history = FedAvgTrainer(tiny_federated, small_spec).run()
        times = history.elapsed_times
        assert np.all(np.diff(times) > 0)

    def test_accuracy_improves_over_training(self, tiny_federated):
        spec = ScenarioSpec(
            system="fedavg",
            num_rounds=6,
            participation=1.0,
            epochs=2,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            seed=1,
        ).validate()
        history = FedAvgTrainer(tiny_federated, spec).run()
        assert history.accuracies[-1] > history.accuracies[0]
        assert history.final_accuracy(window=2) > 0.5

    def test_run_reproducible(self, tiny_federated, small_spec):
        h1 = FedAvgTrainer(tiny_federated, small_spec).run()
        h2 = FedAvgTrainer(tiny_federated, small_spec).run()
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)
        np.testing.assert_allclose(h1.delays, h2.delays)

    def test_config_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(system="fedavg", num_rounds=0).validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(system="fedavg", participation=1.5).validate()
        # (0, 1]: selecting nobody is not a round.
        with pytest.raises(ScenarioError, match="participation"):
            ScenarioSpec(system="fedavg", participation=0.0).validate()


class TestFedProxTrainer:
    def test_run_with_dropping(self, tiny_federated):
        spec = ScenarioSpec(
            system="fedprox",
            num_rounds=2,
            participation=1.0,
            epochs=1,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            proximal_mu=0.01,
            drop_percent=0.5,
            seed=0,
        ).validate()
        history = FedProxTrainer(tiny_federated, spec).run()
        assert len(history) == 2
        assert all(0.0 <= r.accuracy <= 1.0 for r in history.rounds)

    def test_validation(self):
        with pytest.raises(ScenarioError, match="proximal_mu"):
            ScenarioSpec(system="fedprox", proximal_mu=-1.0).validate()
        with pytest.raises(ScenarioError, match="drop_percent"):
            ScenarioSpec(system="fedprox", drop_percent=1.5).validate()


@given(
    st.integers(2, 6),
    st.integers(3, 10),
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_weighted_average_convexity_property(rows, cols, raw_weights):
    """Property: any weighted average lies inside the per-coordinate envelope of the updates."""
    rows = min(rows, len(raw_weights))
    weights = np.array(raw_weights[:rows])
    m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
    agg = weighted_average(m, weights)
    assert np.all(agg <= m.max(axis=0) + 1e-9)
    assert np.all(agg >= m.min(axis=0) - 1e-9)
