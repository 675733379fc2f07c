"""Figure 6b: average delay as the number of miners grows.

Paper result: the vanilla blockchain's delay grows sharply (approximately
exponentially) with the miner count because simultaneous solutions fork the
chain and merging costs time, while FAIR-BFL is nearly flat -- Assumptions 1
and 2 guarantee one block per round and no forks, so extra miners only add
broadcast/exchange overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import api
from repro.core.results import ComparisonResult

MINER_COUNTS = (2, 4, 6, 8, 10)


def _sweep(base, engine):
    rows = []
    for m in MINER_COUNTS:
        fair = api.run(base, engine=engine, system="fairbfl", miners=m)
        chain = api.run(base, engine=engine, system="blockchain", num_clients=100, miners=m)
        rows.append((m, fair.average_delay(), chain.average_delay()))
    return rows


def test_fig6b_delay_vs_miners(benchmark, bench_spec, engine):
    rows = benchmark.pedantic(_sweep, args=(bench_spec, engine), rounds=1, iterations=1)

    table = ComparisonResult(
        title="Figure 6b -- average delay (s) vs number of miners",
        columns=["miners", "FAIR", "Blockchain"],
    )
    for row in rows:
        table.add_row(*row)
    table.notes.append(
        "paper: Blockchain grows ~exponentially with m (forking); FAIR stays nearly flat"
    )
    emit(table, "fig6b_miners.txt")

    fair = np.array([r[1] for r in rows])
    chain = np.array([r[2] for r in rows])
    # The vanilla chain pays a substantial fork-merge penalty as miners increase.
    assert chain[-1] > chain[0] + 2.0
    # FAIR-BFL's delay growth across the whole sweep is small in comparison.
    assert (fair[-1] - fair[0]) < 0.35 * (chain[-1] - chain[0])
    # FAIR is cheaper than the vanilla chain at every miner count.
    assert np.all(fair < chain)


@pytest.mark.smoke
def test_fig6b_miners_smoke(smoke_spec, engine):
    """Fast structural pass: the miner axis is wired through both systems."""
    fair = api.run(smoke_spec, engine=engine, system="fairbfl", miners=3)
    chain = api.run(smoke_spec, engine=engine, system="blockchain", num_clients=20, miners=3)
    assert fair.average_delay() > 0
    assert chain.average_delay() > 0
