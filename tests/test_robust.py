"""Tests for the robust-aggregation defense subsystem (``fl/robust.py``).

Covers the pure kernels (Krum scores, clipping, median, trimmed mean), the
defense protocol and pipeline composition, the factory, and the integration
edge cases the threat model calls out: a Krum-degenerate attacker majority
(m >= n/2), a single-client round, defenses under the ``async`` round mode
with stale merges, and bit-identical histories across executor backends with
a defense enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fairbfl import FairBFLTrainer
from repro.fl.aggregation import AggregationError
from repro.fl.client import ClientUpdate
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.cohort import EXECUTOR_BACKENDS
from repro.fl.robust import (
    DEFENSES,
    DefensePipeline,
    KrumDefense,
    TrimmedMeanDefense,
    check_defense,
    clip_rows,
    coordinate_median,
    krum_scores,
    make_defense,
    pairwise_sq_distances,
    trimmed_mean,
)
from repro.fl.server import CentralServer
from repro.nn.models import ModelFactory
from repro.runner.scenario import ScenarioError, ScenarioSpec

pytestmark = pytest.mark.aggregation

#: Every primitive defense, and two chains, for the server's non-finite screen.
SCREENED_DEFENSES = (*DEFENSES, "norm_clip+multi_krum", "norm_clip+median")


def _honest_vs_attackers(honest: int = 6, attackers: int = 2, dim: int = 4):
    """A direction matrix: a tight honest cluster plus sign-flipped outliers."""
    rng = np.random.default_rng(0)
    base = np.ones(dim)
    rows = [base + 0.05 * rng.normal(size=dim) for _ in range(honest)]
    rows += [-base + 0.05 * rng.normal(size=dim) for _ in range(attackers)]
    return np.stack(rows, axis=0)


class TestKernels:
    def test_pairwise_sq_distances(self):
        m = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_sq_distances(m)
        assert d[0, 1] == pytest.approx(25.0)
        assert d[0, 0] == pytest.approx(0.0)

    def test_krum_scores_flag_outliers(self):
        m = _honest_vs_attackers()
        scores = krum_scores(m, num_attackers=2)
        honest_max = scores[:6].max()
        attacker_min = scores[6:].min()
        assert attacker_min > honest_max

    def test_krum_scores_single_row(self):
        np.testing.assert_array_equal(krum_scores(np.ones((1, 3)), 0), np.zeros(1))

    def test_krum_scores_degenerate_neighbour_clamp(self):
        # m >= n - 2 would ask for <= 0 neighbours; the clamp keeps one.
        m = _honest_vs_attackers(honest=2, attackers=2)
        scores = krum_scores(m, num_attackers=3)
        assert np.all(np.isfinite(scores))

    def test_krum_scores_negative_attackers(self):
        with pytest.raises(AggregationError):
            krum_scores(np.ones((3, 2)), -1)

    def test_clip_rows(self):
        m = np.array([[3.0, 4.0], [0.3, 0.4]])
        clipped, count = clip_rows(m, 1.0)
        assert count == 1
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped[1], m[1])
        # Direction is preserved, only the magnitude shrinks.
        np.testing.assert_allclose(clipped[0], [0.6, 0.8])

    def test_clip_rows_zero_threshold_noop(self):
        m = np.ones((2, 3))
        clipped, count = clip_rows(m, 0.0)
        assert count == 0
        np.testing.assert_array_equal(clipped, m)

    def test_coordinate_median(self):
        m = np.array([[1.0, 10.0], [2.0, 20.0], [100.0, 30.0]])
        np.testing.assert_allclose(coordinate_median(m), [2.0, 20.0])

    def test_trimmed_mean_drops_extremes(self):
        m = np.array([[0.0], [1.0], [1.0], [1.0], [100.0]])
        assert trimmed_mean(m, 1)[0] == pytest.approx(1.0)

    def test_trimmed_mean_clamps_trim(self):
        # trim=5 on 3 rows would empty every coordinate; the clamp keeps one.
        m = np.array([[0.0], [1.0], [2.0]])
        assert trimmed_mean(m, 5)[0] == pytest.approx(1.0)

    def test_trimmed_mean_zero_is_mean(self):
        m = np.array([[0.0], [4.0]])
        assert trimmed_mean(m, 0)[0] == pytest.approx(2.0)
        with pytest.raises(AggregationError):
            trimmed_mean(m, -1)

    def test_empty_matrix_rejected(self):
        for fn in (pairwise_sq_distances, coordinate_median):
            with pytest.raises(AggregationError):
                fn(np.empty((0, 3)))
        with pytest.raises(AggregationError):
            krum_scores(np.ones(3), 0)  # 1-D input


class TestDefenses:
    def test_norm_clip_bounds_scaled_forgery(self):
        honest = np.ones((4, 3))
        forged = 50.0 * np.ones((1, 3))
        m = np.vstack([honest, forged])
        o = make_defense("norm_clip").apply(m)
        assert o.clipped == 1
        assert o.kept_indices == tuple(range(5))
        # The forged row's pull is bounded by the median honest norm.
        assert np.linalg.norm(o.aggregate) <= np.linalg.norm(honest[0]) * 1.01

    def test_krum_selects_honest_row(self):
        m = _honest_vs_attackers()
        o = make_defense("krum", attacker_fraction=0.25).apply(m)
        assert len(o.kept_indices) == 1
        assert o.kept_indices[0] < 6  # an honest row

    def test_multi_krum_rejects_attackers(self):
        m = _honest_vs_attackers()
        o = make_defense("multi_krum", attacker_fraction=0.25).apply(m)
        assert o.kept_indices == tuple(range(6))
        assert np.dot(o.aggregate, np.ones(4)) > 0

    def test_krum_attacker_majority_degenerates_gracefully(self):
        # m >= n/2: Krum's guarantee is void (the tight majority cluster wins,
        # and here the majority is malicious).  The defense must still return
        # a valid outcome — the documented degenerate regime, not a crash.
        m = _honest_vs_attackers(honest=2, attackers=4)
        o = make_defense("multi_krum", attacker_fraction=0.4).apply(m)
        assert 1 <= len(o.kept_indices) <= 6
        assert np.all(np.isfinite(o.aggregate))

    def test_median_replaces_aggregation(self):
        m = _honest_vs_attackers()
        defense = make_defense("median")
        assert defense.replaces_aggregation
        o = defense.apply(m)
        assert o.kept_indices == tuple(range(8))
        # 6-vs-2 sign split: the median lands in the honest half-space.
        assert np.all(o.aggregate > 0)

    def test_trimmed_mean_defense(self):
        m = _honest_vs_attackers()
        defense = make_defense("trimmed_mean", attacker_fraction=0.25)
        assert defense.replaces_aggregation
        o = defense.apply(m)
        # Trimming 2 per side removes the attacker extremes.
        assert np.all(o.aggregate > 0.5)

    def test_single_row_survives_every_defense(self):
        row = np.full((1, 5), 3.0)
        for name in DEFENSES:
            defense = make_defense(name)
            if defense is None:
                continue
            o = defense.apply(row)
            assert o.kept_indices == (0,)
            np.testing.assert_allclose(o.aggregate, row[0])

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            KrumDefense(0.5)
        with pytest.raises(ValueError):
            TrimmedMeanDefense(-0.1)


class TestPipelineAndFactory:
    def test_pipeline_composes_indices_and_clips(self):
        m = _honest_vs_attackers()
        m[3] *= 40.0  # an honest-direction but scaled row
        pipeline = make_defense("norm_clip+multi_krum", attacker_fraction=0.25)
        assert isinstance(pipeline, DefensePipeline)
        o = pipeline.apply(m)
        assert o.clipped >= 1
        # Indices refer to the ORIGINAL rows, post-composition.
        assert all(i < 6 for i in o.kept_indices)
        assert pipeline.name == "norm_clip+multi_krum"

    def test_pipeline_aggregate_replacing_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            make_defense("median+krum")
        assert make_defense("norm_clip+median").replaces_aggregation

    def test_factory_none_and_errors(self):
        assert make_defense("none") is None
        with pytest.raises(ValueError, match="unknown defense"):
            make_defense("byzantine_shield")
        with pytest.raises(ValueError, match="combined"):
            make_defense("none+krum")
        with pytest.raises(ValueError, match="empty"):
            make_defense("  ")

    def test_check_defense_round_trip(self):
        for name in DEFENSES:
            assert check_defense(name) == name
        assert check_defense("norm_clip+trimmed_mean") == "norm_clip+trimmed_mean"

    def test_pipeline_needs_stages(self):
        with pytest.raises(ValueError):
            DefensePipeline([])


def _update(cid: int, params) -> ClientUpdate:
    return ClientUpdate(client_id=cid, parameters=np.asarray(params, dtype=np.float64), train_loss=0.1)


class TestCentralServerDefense:
    def _server(self, **kwargs) -> CentralServer:
        factory = ModelFactory(
            model_name="logreg", input_dim=4, num_classes=10, seed=0, label="test"
        )
        return CentralServer(factory, **kwargs)

    def test_median_defense_replaces_mean(self):
        server = self._server(defense="median")
        start = server.global_parameters.copy()
        updates = [
            _update(0, start + 1.0),
            _update(1, start + 1.0),
            _update(2, start + 1000.0),
        ]
        new_global = server.aggregate(updates)
        np.testing.assert_allclose(new_global, start + 1.0)

    def test_krum_defense_filters_rows(self):
        # ceil(0.3 * 3) = 1 assumed attacker -> multi-Krum keeps 2 of 3 rows.
        server = self._server(defense="multi_krum", defense_fraction=0.3)
        start = server.global_parameters.copy()
        updates = [
            _update(0, start + 1.0),
            _update(1, start + 1.1),
            _update(2, start - 5.0),
        ]
        new_global = server.aggregate(updates)
        np.testing.assert_allclose(new_global, start + 1.05)  # the two kept rows' mean

    def test_krum_survivors_are_averaged(self):
        # Survivors carry equal weight: their plain mean.
        server = self._server(defense="multi_krum", defense_fraction=0.3)
        start = server.global_parameters.copy()
        updates = [
            _update(0, start + 1.0),
            _update(1, start + 2.0),
            _update(2, start - 9.0),
        ]
        new_global = server.aggregate(updates)
        np.testing.assert_allclose(new_global, start + 1.5)

    def test_no_defense_path_unchanged(self):
        server = self._server()
        assert server.defense is None
        start = server.global_parameters.copy()
        new_global = server.aggregate([_update(0, start + 2.0), _update(1, start + 4.0)])
        np.testing.assert_allclose(new_global, start + 3.0)

    def _screened_round(self, defense, poisoned, bad):
        """The round with ``bad`` written into rows ``poisoned``, and the round
        those uploads never joined."""
        start = self._server().global_parameters
        rows = start + 0.1 * np.random.default_rng(5).normal(size=(7, start.size))
        without = np.delete(rows, poisoned, axis=0)
        clean = self._server(defense=defense).aggregate(
            [_update(i, r) for i, r in enumerate(without)]
        )
        rows[poisoned, 1] = bad
        got = self._server(defense=defense).aggregate(
            [_update(i, r) for i, r in enumerate(rows)]
        )
        return got, clean

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("defense", SCREENED_DEFENSES)
    def test_non_finite_upload_leaves_the_round(self, bad, defense):
        """The screened round is the round the poisoned upload never joined."""
        got, clean = self._screened_round(defense, [3], bad)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == clean.tobytes()

    @pytest.mark.parametrize("defense", SCREENED_DEFENSES)
    def test_non_finite_first_and_last_uploads_leave_the_round(self, defense):
        """Compaction keeps the survivors' order when the first and the last
        rows go (NaN in one, +Inf in the other)."""
        got, clean = self._screened_round(defense, [0, 6], np.array([np.nan, np.inf]))
        assert np.all(np.isfinite(got))
        assert got.tobytes() == clean.tobytes()

    @pytest.mark.parametrize("defense", SCREENED_DEFENSES)
    def test_all_uploads_non_finite_keeps_the_global(self, defense):
        server = self._server(defense=defense)
        start = server.global_parameters.copy()
        updates = [_update(0, np.full_like(start, np.nan)), _update(1, start + np.inf)]
        assert server.aggregate(updates).tobytes() == start.tobytes()
        assert server.global_parameters.tobytes() == start.tobytes()


def _trainer_spec(**overrides) -> ScenarioSpec:
    base = dict(
        num_rounds=2,
        participation=1.0,
        epochs=1,
        batch_size=10,
        learning_rate=0.05,
        model_name="logreg",
        attacks=True,
        attack_name="sign_flip",
        min_attackers=1,
        max_attackers=1,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base).validate()


class TestTrainerIntegration:
    def test_defense_rejections_feed_detection_logs(self, tiny_federated):
        with FairBFLTrainer(
            tiny_federated, _trainer_spec(defense="multi_krum", defense_fraction=0.34)
        ) as trainer:
            history = trainer.run()
        rejected = [r.extras["defense_rejected"] for r in history.rounds]
        assert any(rejected), "multi-Krum never rejected a sign-flipped upload"
        # Every defense rejection appears in the scheduler's drop accounting.
        for log, record in zip(trainer.detection_logs(), history.rounds):
            assert set(record.extras["defense_rejected"]) <= set(log.dropped_ids)
        assert all(r.extras["defense"] == "multi_krum" for r in history.rounds)

    def test_single_client_round(self, tiny_federated):
        # participation 0.1 of 6 clients -> one selected client per round; the
        # whole defense pipeline must survive a (1, d) gradient matrix.
        for defense in ("krum", "median", "norm_clip+trimmed_mean"):
            spec = _trainer_spec(participation=0.1, attacks=False, defense=defense)
            with FairBFLTrainer(tiny_federated, spec) as trainer:
                history = trainer.run()
            assert len(history) == 2
            assert all(len(r.participants) == 1 for r in history.rounds)
            assert all(r.extras["defense_rejected"] == [] for r in history.rounds)

    def test_async_round_mode_with_defense(self, tiny_federated):
        spec = _trainer_spec(
            num_rounds=3,
            defense="norm_clip+multi_krum",
            round_mode="async",
            async_quorum=0.4,
            staleness_decay=0.5,
        )
        with FairBFLTrainer(tiny_federated, spec) as trainer:
            history = trainer.run()
        assert len(history) == 3
        # Stale bookkeeping stays consistent: every buffered update is either
        # applied or rejected (by the defense or the alignment screen).
        stragglers = sum(len(r.extras["stragglers"]) for r in history.rounds)
        resolved = sum(
            r.extras["stale_applied"] + r.extras["stale_rejected"] for r in history.rounds
        )
        assert stragglers > 0
        assert resolved <= stragglers  # the last round's stragglers stay buffered
        assert all(np.isfinite(r.accuracy) for r in history.rounds)

    def test_backend_parity_with_defense(self, tiny_federated):
        fingerprints = {}
        finals = {}
        for backend in EXECUTOR_BACKENDS:
            spec = _trainer_spec(
                defense="norm_clip+multi_krum",
                defense_fraction=0.34,
                backend=backend,
                max_workers=2,
            )
            with FairBFLTrainer(tiny_federated, spec) as trainer:
                history = trainer.run()
                finals[backend] = trainer.current_global_parameters()
            fingerprints[backend] = [
                (r.accuracy, r.train_loss, tuple(r.extras["defense_rejected"]))
                for r in history.rounds
            ]
        assert fingerprints["cohort"] == fingerprints["serial"]
        assert finals["cohort"].tobytes() == finals["serial"].tobytes()


class TestScenarioAndConfigValidation:
    def test_scenario_defense_axis_validates(self, tiny_federated):
        spec = ScenarioSpec(defense="norm_clip+krum", defense_fraction=0.3)
        assert spec.validate() is spec
        with FairBFLTrainer(tiny_federated, spec) as trainer:
            assert trainer.defense.name == "norm_clip+krum"
        with FedAvgTrainer(tiny_federated, spec) as trainer:
            assert trainer.server.defense.name == "norm_clip+krum"

    def test_scenario_rejects_unknown_defense(self):
        with pytest.raises(ScenarioError, match="unknown defense"):
            ScenarioSpec(defense="fortress").validate()
        with pytest.raises(ScenarioError, match="defense_fraction"):
            ScenarioSpec(defense="krum", defense_fraction=0.7).validate()

    def test_config_rejects_unknown_attack(self):
        with pytest.raises(ScenarioError, match="attack_name"):
            ScenarioSpec(attack_name="backdoor").validate()

    def test_label_flip_reaches_config(self, tiny_federated):
        spec = _trainer_spec(attack_name="label_flip")
        with FairBFLTrainer(tiny_federated, spec) as trainer:
            assert trainer.attack_scheduler.attack.name == "label_flip"
