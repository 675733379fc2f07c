"""Figure 5a: average delay under different learning rates.

Paper result: the learning rate has a negligible effect on the average delay
of FAIR-BFL and FedAvg (the delay is dominated by communication and mining,
not by the local arithmetic, and the learning rate does not change the number
of local steps).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import api
from repro.core.results import ComparisonResult

LEARNING_RATES = (0.01, 0.05, 0.10, 0.15, 0.20)


def _sweep(base, engine):
    rows = []
    for lr in LEARNING_RATES:
        fair = api.run(base, engine=engine, system="fairbfl", learning_rate=lr)
        fedavg = api.run(base, engine=engine, system="fedavg", learning_rate=lr)
        rows.append((lr, fair.average_delay(), fedavg.average_delay()))
    return rows


def test_fig5a_learning_rate_delay(benchmark, bench_spec, engine):
    rows = benchmark.pedantic(_sweep, args=(bench_spec, engine), rounds=1, iterations=1)

    table = ComparisonResult(
        title="Figure 5a -- average delay (s) under different learning rates",
        columns=["learning_rate", "FAIR", "FedAvg"],
    )
    for lr, fair_delay, fedavg_delay in rows:
        table.add_row(lr, fair_delay, fedavg_delay)
    table.notes.append("paper: delay is essentially flat in the learning rate for both systems")
    emit(table, "fig5a_lr_delay.txt")

    fair_delays = np.array([r[1] for r in rows])
    fedavg_delays = np.array([r[2] for r in rows])
    # Flatness: the spread across learning rates stays within the round-to-round
    # noise band (well under half of the mean delay).
    assert np.ptp(fair_delays) < 0.5 * fair_delays.mean()
    assert np.ptp(fedavg_delays) < 0.5 * fedavg_delays.mean()
    # And FAIR remains the costlier of the two at every learning rate.
    assert np.all(fair_delays > fedavg_delays)


@pytest.mark.smoke
def test_fig5a_lr_delay_smoke(smoke_spec, engine):
    """Fast structural pass: the delay is flat across one pair of learning rates."""
    lo = api.run(smoke_spec, engine=engine, system="fedavg", learning_rate=LEARNING_RATES[0])
    hi = api.run(smoke_spec, engine=engine, system="fedavg", learning_rate=LEARNING_RATES[-1])
    assert lo.average_delay() > 0 and hi.average_delay() > 0
    assert abs(lo.average_delay() - hi.average_delay()) < 0.5 * lo.average_delay() + 1.0
