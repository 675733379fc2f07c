"""Micro-benchmarks of the hot substrate operations.

These are conventional pytest-benchmark targets (many iterations of a small
operation) covering the per-round building blocks whose costs the delay model
abstracts: proof-of-work hashing, RSA signing/verification, DBSCAN clustering
of a gradient set, fair aggregation, and one client's local SGD epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.pow import mine_block
from repro.crypto.keystore import KeyStore
from repro.fl.aggregation import fair_aggregate
from repro.fl.client import FLClient, LocalTrainingConfig, ModelWorkspace
from repro.incentive.clustering import DBSCAN
from repro.incentive.contribution import identify_contributions
from repro.nn.models import LogisticRegressionModel
from repro.nn.parameters import get_flat_parameters
from repro.utils.rng import new_rng


@pytest.fixture(scope="module")
def gradient_set():
    rng = new_rng(0, "micro", "gradients")
    honest = np.ones(512) + 0.1 * rng.normal(size=(18, 512))
    attackers = -np.ones(512) + 0.1 * rng.normal(size=(2, 512))
    return np.vstack([honest, attackers])


def test_micro_pow_mining(benchmark):
    """Nonce search at a small difficulty (Equation 4)."""

    def mine():
        block = Block.genesis()
        return mine_block(block, difficulty=64.0, max_attempts=1_000_000)

    result = benchmark(mine)
    assert result.success


def test_micro_rsa_sign_verify(benchmark):
    """One sign + verify cycle over a gradient-sized payload digest (Figure 2)."""
    store = KeyStore(key_bits=256)
    store.register("client-0")
    payload = np.ones(1024).tobytes()

    def sign_and_verify():
        sig = store.sign("client-0", payload)
        return store.verify("client-0", payload, sig)

    assert benchmark(sign_and_verify)


def test_micro_dbscan_clustering(benchmark, gradient_set):
    """DBSCAN over a 20-vector gradient set (Algorithm 2's dominant cost)."""
    clusterer = DBSCAN(eps=0.5, min_samples=3, metric="cosine")
    result = benchmark(clusterer.fit, gradient_set)
    assert result.num_clusters >= 1


def test_micro_contribution_identification(benchmark, gradient_set):
    """Full Algorithm 2 (clustering + distances + reward list)."""
    ids = list(range(gradient_set.shape[0]))
    global_update = gradient_set.mean(axis=0)
    clusterer = DBSCAN(eps=0.5)

    report = benchmark(identify_contributions, gradient_set, ids, global_update, clusterer, 1.0)
    assert len(report.high_contributors) + len(report.low_contributors) == len(ids)


def test_micro_fair_aggregation(benchmark, gradient_set):
    """Equation (1) weighting over the gradient set."""
    thetas = np.linspace(0.1, 1.0, gradient_set.shape[0])
    agg = benchmark(fair_aggregate, gradient_set, thetas)
    assert agg.shape == (gradient_set.shape[1],)


def test_micro_local_sgd_epoch(benchmark, tiny_federated=None):
    """One client's local update (Procedure I) on a small shard."""
    from repro.datasets.federated import build_federated_dataset

    dataset = build_federated_dataset(num_clients=4, num_samples=300, seed=0)
    shard = dataset.client(0)
    workspace = ModelWorkspace(lambda: LogisticRegressionModel(784, 10, new_rng(0, "m")))
    client = FLClient(shard, workspace, new_rng(0, "c"))
    global_params = get_flat_parameters(client.model)
    config = LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05)

    orders = client.draw_orders(config.epochs)
    update = benchmark(client.local_update, global_params, config, orders)
    assert update.parameters.shape == global_params.shape


@pytest.mark.smoke
def test_micro_substrates_smoke(gradient_set):
    """Fast structural pass over the substrates, without benchmark timing."""
    assert mine_block(Block.genesis(), difficulty=16.0, max_attempts=100_000).success
    store = KeyStore(key_bits=256)
    store.register("client-0")
    payload = np.ones(16).tobytes()
    assert store.verify("client-0", payload, store.sign("client-0", payload))
    assert DBSCAN(eps=0.5, min_samples=3, metric="cosine").fit(gradient_set).num_clusters >= 1
    agg = fair_aggregate(gradient_set, np.linspace(0.1, 1.0, gradient_set.shape[0]))
    assert agg.shape == (gradient_set.shape[1],)
