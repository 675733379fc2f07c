"""Ablation: Assumption 2 (bounding the block's data scope).

FAIR-BFL records only the round's global gradient in each block; vanilla BFL
records every local gradient, so its per-round block count (and therefore its
mining and queueing cost) grows with the participant count.  This ablation
quantifies exactly that design choice by sweeping the worker count and
measuring (a) blocks mined per round and (b) the resulting ledger delay.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core.results import ComparisonResult
from repro.runner.scenario import ScenarioSpec
from repro.sim.delay import DelayModel, DelayParameters
from repro.sim.vanilla_blockchain import VanillaBlockchainSimulator
from repro.utils.rng import new_rng

WORKER_COUNTS = (20, 60, 100, 200, 300)


def _sweep():
    params = DelayParameters(transactions_per_block=100)
    rows = []
    for n in WORKER_COUNTS:
        # Vanilla recording: every worker's gradient is an on-chain transaction.
        sim = VanillaBlockchainSimulator(
            ScenarioSpec(system="blockchain", num_clients=n, miners=2, num_rounds=4, seed=0),
            delay_params=params,
        )
        vanilla_hist = sim.run()
        vanilla_blocks = float(
            np.mean([r.extras["blocks_mined"] for r in vanilla_hist.rounds])
        )
        # Assumption 2: exactly one block per round regardless of n; its ledger
        # cost is a single mining competition.
        model = DelayModel(params, new_rng(1, "scoped", n))
        scoped_delay = float(np.mean([model.mining_delay(2) for _ in range(200)]))
        rows.append((n, vanilla_blocks, vanilla_hist.average_delay(), 1.0, scoped_delay))
    return rows


def test_ablation_block_scope(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = ComparisonResult(
        title="Ablation -- Assumption 2 (block data scope): vanilla per-gradient vs single global block",
        columns=[
            "workers",
            "vanilla_blocks_per_round",
            "vanilla_ledger_delay_s",
            "scoped_blocks_per_round",
            "scoped_ledger_delay_s",
        ],
    )
    for row in rows:
        table.add_row(*row)
    table.notes.append(
        "Assumption 2 keeps the block count at 1 regardless of scale; vanilla recording "
        "queues transactions once n exceeds the block capacity"
    )
    emit(table, "ablation_block_scope.txt")

    vanilla_blocks = np.array([r[1] for r in rows])
    scoped_delay = np.array([r[4] for r in rows])
    vanilla_delay = np.array([r[2] for r in rows])
    # Vanilla block count grows once the population exceeds the block capacity.
    assert vanilla_blocks[-1] > vanilla_blocks[0]
    assert vanilla_blocks[-1] >= 3.0
    # The scoped design's ledger delay is flat in n and cheaper at scale.
    assert np.ptp(scoped_delay) < 0.5 * scoped_delay.mean() + 1.0
    assert vanilla_delay[-1] > scoped_delay[-1]


@pytest.mark.smoke
def test_ablation_block_scope_smoke():
    """Fast structural pass: one vanilla point vs the scoped single-block cost."""
    params = DelayParameters(transactions_per_block=100)
    sim = VanillaBlockchainSimulator(
        ScenarioSpec(system="blockchain", num_clients=120, miners=2, num_rounds=2, seed=0),
        delay_params=params,
    )
    hist = sim.run()
    blocks = float(np.mean([r.extras["blocks_mined"] for r in hist.rounds]))
    # 120 per-gradient transactions overflow a 100-transaction block.
    assert blocks > 1.0
    model = DelayModel(params, new_rng(1, "scoped-smoke"))
    assert float(np.mean([model.mining_delay(2) for _ in range(20)])) > 0.0
