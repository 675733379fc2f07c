"""Figure 6a: average delay as the number of workers grows.

Paper result: the vanilla blockchain's delay grows with the worker count
(every worker adds an on-chain transaction; once the volume crosses the block
size, queueing kicks in), while FAIR-BFL and FedAvg stay nearly flat because
each FAIR-BFL block carries only the round's single global gradient
(Assumption 2).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import api
from repro.core.results import ComparisonResult

WORKER_COUNTS = (20, 60, 100, 140)


def _sweep():
    rows = []
    engine = api.ExperimentEngine()
    for n in WORKER_COUNTS:
        base = api.ScenarioSpec(
            num_clients=n, num_samples=max(600, 30 * n), num_rounds=6, participation=0.1
        )
        fair = api.run(base, engine=engine)
        fedavg = api.run(base, engine=engine, system="fedavg")
        chain = api.run(base, engine=engine, system="blockchain")
        rows.append((n, fair.average_delay(), chain.average_delay(), fedavg.average_delay()))
    return rows


def test_fig6a_delay_vs_workers(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = ComparisonResult(
        title="Figure 6a -- average delay (s) vs number of workers",
        columns=["workers", "FAIR", "Blockchain", "FedAvg"],
    )
    for row in rows:
        table.add_row(*row)
    table.notes.append(
        "paper: Blockchain grows with n (transaction volume / queueing); FAIR and FedAvg stay flat"
    )
    emit(table, "fig6a_workers.txt")

    workers = np.array([r[0] for r in rows], dtype=float)
    fair = np.array([r[1] for r in rows])
    chain = np.array([r[2] for r in rows])
    # Blockchain delay grows substantially from the smallest to the largest population.
    assert chain[-1] > 1.5 * chain[0]
    # FAIR-BFL's growth is far milder than the vanilla blockchain's.
    assert (fair[-1] - fair[0]) < 0.5 * (chain[-1] - chain[0])
    # At large scale the vanilla blockchain is the slowest system.
    assert chain[-1] > fair[-1]


@pytest.mark.smoke
def test_fig6a_workers_smoke():
    """Fast structural pass: one population point of the worker sweep."""
    base = api.ScenarioSpec(
        num_clients=12, num_samples=600, num_rounds=2, participation=0.25, epochs=1
    )
    engine = api.ExperimentEngine()
    assert api.run(base, engine=engine).average_delay() > 0
    assert api.run(base, engine=engine, system="blockchain").average_delay() > 0
