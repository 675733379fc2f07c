"""Tests for the incentive mechanism: clustering, distances, Algorithm 2, rewards, strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.transaction import make_reward_transaction
from repro.fl.aggregation import simple_average
from repro.incentive.clustering import DBSCAN, KMeans, NOISE_LABEL, make_clusterer
from repro.incentive.contribution import identify_contributions
from repro.incentive.distance import cosine_distance_to_reference
from repro.incentive.rewards import apportion_rewards
from repro.incentive.strategies import DiscardStrategy, KeepAllStrategy, make_strategy
from repro.utils.rng import new_rng


def _two_cluster_data(n_per=6, dim=12, separation=5.0, seed=0):
    """Two well-separated direction clusters plus the combined matrix."""
    rng = new_rng(seed, "clusters")
    base_a = np.ones(dim)
    base_b = np.concatenate([np.ones(dim // 2), -np.ones(dim - dim // 2)]) * separation
    a = base_a + 0.05 * rng.normal(size=(n_per, dim))
    b = base_b + 0.05 * rng.normal(size=(n_per, dim))
    return a, b, np.vstack([a, b])


class TestCosineDistanceToReference:
    def test_identical_rows_zero_distance(self):
        m = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        d = cosine_distance_to_reference(m, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_opposite_row_distance_two(self):
        ref = np.array([1.0, 0.0])
        m = np.array([[1.0, 0.0], [-1.0, 0.0]])
        d = cosine_distance_to_reference(m, ref)
        np.testing.assert_allclose(d, [0.0, 2.0], atol=1e-12)

    def test_zero_reference_gives_ones(self):
        d = cosine_distance_to_reference(np.ones((3, 4)), np.zeros(4))
        np.testing.assert_allclose(d, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance_to_reference(np.ones((2, 3)), np.ones(4))


class TestDBSCAN:
    def test_separates_two_clusters(self):
        a, b, m = _two_cluster_data()
        result = DBSCAN(eps=0.3, min_samples=3, metric="cosine").fit(m)
        assert result.num_clusters == 2
        labels_a = set(result.labels[: len(a)].tolist())
        labels_b = set(result.labels[len(a) :].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_marks_isolated_point_as_noise(self):
        a, _, _ = _two_cluster_data()
        outlier = -10.0 * np.ones(a.shape[1])
        m = np.vstack([a, outlier])
        result = DBSCAN(eps=0.3, min_samples=3, metric="cosine").fit(m)
        assert result.labels[-1] == NOISE_LABEL

    def test_members(self):
        a, b, m = _two_cluster_data(n_per=4)
        result = DBSCAN(eps=0.3, min_samples=2).fit(m)
        label0 = result.cluster_of(0)
        assert set(np.flatnonzero(result.labels == label0).tolist()) == set(range(4))

    def test_min_samples_one_every_point_core(self):
        m = np.eye(4)
        result = DBSCAN(eps=0.1, min_samples=1, metric="euclidean").fit(m)
        assert result.num_clusters == 4

    def test_euclidean_metric(self):
        m = np.vstack([np.zeros((3, 2)), 10.0 + np.zeros((3, 2))])
        result = DBSCAN(eps=1.0, min_samples=2, metric="euclidean").fit(m)
        assert result.num_clusters == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DBSCAN(eps=0.0)
        with pytest.raises(ValueError):
            DBSCAN(min_samples=0)
        with pytest.raises(ValueError):
            DBSCAN(metric="hamming").fit(np.ones((2, 2)))
        with pytest.raises(ValueError):
            DBSCAN().fit(np.ones(3))


class TestKMeans:
    def test_separates_two_clusters(self):
        a, b, m = _two_cluster_data()
        result = KMeans(num_clusters=2, seed=0).fit(m)
        assert result.num_clusters == 2
        assert len(set(result.labels[: len(a)].tolist())) == 1
        assert len(set(result.labels[len(a) :].tolist())) == 1

    def test_single_cluster(self):
        m = np.random.default_rng(0).normal(size=(5, 3))
        result = KMeans(num_clusters=1).fit(m)
        assert np.all(result.labels == 0)

    def test_more_clusters_than_points(self):
        m = np.random.default_rng(0).normal(size=(3, 2))
        result = KMeans(num_clusters=10).fit(m)
        assert result.labels.shape == (3,)

    def test_deterministic_given_seed(self):
        _, _, m = _two_cluster_data()
        a = KMeans(num_clusters=2, seed=7).fit(m).labels
        b = KMeans(num_clusters=2, seed=7).fit(m).labels
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(num_clusters=0)
        with pytest.raises(ValueError):
            KMeans(metric="hamming")


class TestMakeClusterer:
    def test_dispatch(self):
        assert isinstance(make_clusterer("dbscan"), DBSCAN)
        assert isinstance(make_clusterer("kmeans"), KMeans)
        with pytest.raises(ValueError):
            make_clusterer("agglomerative")


class TestRewards:
    def test_apportion_proportional_to_theta(self):
        entries = apportion_rewards([1, 2], np.array([0.25, 0.75]), base_reward=2.0)
        assert entries[0].reward == pytest.approx(0.5)
        assert entries[1].reward == pytest.approx(1.5)

    def test_apportion_total_equals_base(self):
        entries = apportion_rewards([0, 1, 2], np.array([0.3, 0.5, 0.2]), base_reward=5.0)
        assert sum(e.reward for e in entries) == pytest.approx(5.0)

    def test_apportion_zero_thetas_uniform(self):
        entries = apportion_rewards([0, 1], np.zeros(2), base_reward=1.0)
        assert entries[0].reward == pytest.approx(0.5)

    def test_apportion_empty(self):
        assert apportion_rewards([], np.zeros(0)) == []

    def test_apportion_validation(self):
        with pytest.raises(ValueError):
            apportion_rewards([0], np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            apportion_rewards([0], np.array([0.1]), base_reward=-1.0)

    def test_chain_accumulates_apportioned_rewards(self):
        # A balance is a replay of the chain's reward transactions: two
        # rounds' reward lists, one block each, sum per client.
        chain = Blockchain(enforce_pow=False)
        chain.add_genesis(Block.genesis())
        rounds = [
            apportion_rewards([1, 2], np.array([0.5, 0.5]), base_reward=1.0),
            apportion_rewards([1], np.array([1.0]), base_reward=1.0),
        ]
        for r, entries in enumerate(rounds):
            chain.add_block(
                Block.create(
                    index=r + 1,
                    previous_hash=chain.last_block.block_hash,
                    round_index=r,
                    miner_id="m",
                    transactions=[
                        make_reward_transaction("m", r, f"client-{e.client_id}", e.reward)
                        for e in entries
                    ],
                )
            )
        totals = chain.total_rewards_by_client()
        assert totals == {"client-1": pytest.approx(1.5), "client-2": pytest.approx(0.5)}
        assert sum(totals.values()) == pytest.approx(2.0)


class TestIdentifyContributions:
    def _setup(self, num_honest=8, num_malicious=2, dim=16, seed=0):
        rng = new_rng(seed, "contrib")
        honest = np.ones(dim) + 0.1 * rng.normal(size=(num_honest, dim))
        malicious = -np.ones(dim) + 0.1 * rng.normal(size=(num_malicious, dim))
        updates = np.vstack([honest, malicious])
        ids = list(range(num_honest + num_malicious))
        global_update = simple_average(updates)
        return updates, ids, global_update, list(range(num_honest, num_honest + num_malicious))

    def test_honest_majority_labelled_high(self):
        updates, ids, g, malicious_ids = self._setup()
        report = identify_contributions(updates, ids, g, DBSCAN(eps=0.5), 1.0)
        assert set(malicious_ids).issubset(set(report.low_contributors))
        assert set(range(8)).issubset(set(report.high_contributors))

    def test_reward_list_covers_high_only(self):
        updates, ids, g, _ = self._setup()
        report = identify_contributions(updates, ids, g, DBSCAN(eps=0.5), 3.0)
        rewarded = {e.client_id for e in report.reward_list}
        assert rewarded == set(report.high_contributors)
        assert sum(e.reward for e in report.reward_list) == pytest.approx(3.0)

    def test_thetas_only_for_high(self):
        updates, ids, g, _ = self._setup()
        report = identify_contributions(updates, ids, g, DBSCAN(eps=0.5), 1.0)
        assert [e.client_id for e in report.reward_list] == report.high_contributors

    def test_all_identical_updates(self):
        updates = np.tile(np.ones(8), (5, 1))
        g = np.ones(8)
        report = identify_contributions(updates, list(range(5)), g, DBSCAN(eps=0.5), 1.0)
        assert set(report.high_contributors) == set(range(5))
        assert report.low_contributors == []

    def test_kmeans_variant(self):
        updates, ids, g, malicious_ids = self._setup()
        report = identify_contributions(
            updates, ids, g, KMeans(num_clusters=2), 1.0
        )
        assert set(report.high_contributors) | set(report.low_contributors) == set(ids)

    def test_fallback_when_global_is_noise(self):
        # Global update orthogonal to two tight but opposite client groups can be noise;
        # force the situation with a tiny eps so nothing clusters with the global row.
        updates, ids, g, _ = self._setup()
        report = identify_contributions(updates, ids, g, DBSCAN(eps=1e-6, min_samples=2), 1.0)
        assert report.used_fallback
        assert set(report.high_contributors) | set(report.low_contributors) == set(ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            identify_contributions(np.zeros((0, 3)), [], np.zeros(3), DBSCAN(), 1.0)
        with pytest.raises(ValueError):
            identify_contributions(np.zeros((2, 3)), [0], np.zeros(3), DBSCAN(), 1.0)
        with pytest.raises(ValueError):
            identify_contributions(np.zeros((2, 3)), [0, 1], np.zeros(4), DBSCAN(), 1.0)


@pytest.mark.aggregation
class TestStrategies:
    def _report(self, updates, ids, g, eps=0.5):
        return identify_contributions(updates, ids, g, DBSCAN(eps=eps), 1.0)

    @staticmethod
    def _thetas(updates, g):
        return cosine_distance_to_reference(updates, g)

    def test_keep_all_keeps_everyone(self):
        rng = new_rng(0, "strategy")
        updates = np.ones((4, 6)) + 0.01 * rng.normal(size=(4, 6))
        ids = [0, 1, 2, 3]
        g = simple_average(updates)
        outcome = KeepAllStrategy().apply(
            updates, ids, self._report(updates, ids, g), self._thetas(updates, g)
        )
        assert outcome.discarded_client_ids == []

    def test_discard_removes_low_contributors(self):
        rng = new_rng(1, "strategy")
        honest = np.ones((6, 8)) + 0.05 * rng.normal(size=(6, 8))
        outlier = -np.ones((1, 8))
        updates = np.vstack([honest, outlier])
        ids = list(range(7))
        g = simple_average(updates)
        report = self._report(updates, ids, g)
        outcome = DiscardStrategy().apply(updates, ids, report, self._thetas(updates, g))
        assert 6 in outcome.discarded_client_ids
        # Recomputed global update should move toward the honest mean.
        assert np.linalg.norm(outcome.global_update - honest.mean(axis=0)) < np.linalg.norm(
            g - honest.mean(axis=0)
        )

    def test_discard_all_low_falls_back_to_keep(self):
        updates = np.vstack([np.ones((2, 4)), -np.ones((2, 4))])
        ids = [0, 1, 2, 3]
        g = np.array([1.0, 1.0, -1.0, -1.0])  # orthogonal-ish to both groups
        report = identify_contributions(updates, ids, g, DBSCAN(eps=0.05, min_samples=2), 1.0)
        outcome = DiscardStrategy().apply(updates, ids, report, self._thetas(updates, g))
        assert set(outcome.discarded_client_ids) < set(ids)  # never every client
        assert outcome.global_update.shape == (4,)

    def test_simple_average_when_fair_aggregation_disabled(self):
        updates = np.array([[0.0, 0.0], [2.0, 2.0]])
        ids = [0, 1]
        g = simple_average(updates)
        report = self._report(updates, ids, g, eps=2.5)
        outcome = KeepAllStrategy().apply(
            updates, ids, report, self._thetas(updates, g), use_fair_aggregation=False
        )
        np.testing.assert_allclose(outcome.global_update, [1.0, 1.0])

    def test_thetas_weight_equation_one(self):
        updates = np.array([[0.0, 0.0], [2.0, 2.0]])
        ids = [0, 1]
        g = simple_average(updates)
        report = self._report(updates, ids, g, eps=2.5)
        outcome = KeepAllStrategy().apply(updates, ids, report, np.array([3.0, 1.0]))
        np.testing.assert_allclose(outcome.global_update, [0.5, 0.5])
        with pytest.raises(ValueError, match="align"):
            KeepAllStrategy().apply(updates, ids, report, np.array([1.0]))

    def test_make_strategy(self):
        assert isinstance(make_strategy("keep"), KeepAllStrategy)
        assert isinstance(make_strategy("discard"), DiscardStrategy)
        with pytest.raises(ValueError):
            make_strategy("median")


@given(st.integers(3, 10), st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_reward_conservation_property(num_clients, base_reward):
    """Property: the reward list always distributes exactly the base reward."""
    rng = np.random.default_rng(num_clients)
    thetas = rng.uniform(0.0, 1.0, size=num_clients)
    entries = apportion_rewards(list(range(num_clients)), thetas, base_reward=base_reward)
    assert sum(e.reward for e in entries) == pytest.approx(base_reward)
    assert all(e.reward >= 0 for e in entries)


@given(st.integers(4, 12))
@settings(max_examples=20, deadline=None)
def test_contribution_partition_property(num_clients):
    """Property: Algorithm 2 always partitions the clients into high ∪ low with no overlap."""
    rng = np.random.default_rng(num_clients * 13)
    updates = rng.normal(size=(num_clients, 10))
    ids = list(range(num_clients))
    g = simple_average(updates)
    report = identify_contributions(updates, ids, g, DBSCAN(eps=0.6), 1.0)
    high, low = set(report.high_contributors), set(report.low_contributors)
    assert high | low == set(ids)
    assert high & low == set()
