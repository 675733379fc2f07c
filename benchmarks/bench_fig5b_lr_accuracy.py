"""Figure 5b: average accuracy under different learning rates.

Paper result: FAIR-BFL and FedAvg have an interior optimum learning rate
(accuracy rises, peaks, then degrades as η grows), while FedProx's accuracy is
comparatively insensitive to η (the proximal term damps the local steps).
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
        fedprox = api.run(
            base, engine=engine, system="fedprox", learning_rate=lr, proximal_mu=0.1
        )
        rows.append(
            (lr, fair.average_accuracy(), fedavg.average_accuracy(), fedprox.average_accuracy())
        )
    return rows


def test_fig5b_learning_rate_accuracy(benchmark, bench_spec, engine):
    rows = benchmark.pedantic(_sweep, args=(bench_spec, engine), rounds=1, iterations=1)

    table = ComparisonResult(
        title="Figure 5b -- average accuracy under different learning rates",
        columns=["learning_rate", "FAIR", "FedAvg", "FedProx"],
    )
    for row in rows:
        table.add_row(*row)
    table.notes.append("paper: FAIR/FedAvg have an optimal eta; FedProx is less sensitive")
    emit(table, "fig5b_lr_accuracy.txt")

    fair_acc = np.array([r[1] for r in rows])
    fedprox_acc = np.array([r[3] for r in rows])
    # The learning rate matters for FAIR (a meaningful accuracy spread exists).
    assert np.ptp(fair_acc) > 0.01
    # The best FAIR setting is not the most extreme learning rate being terrible:
    # accuracy at the optimum beats the worst setting clearly.
    assert fair_acc.max() - fair_acc.min() >= 0.01
    # FedProx's spread is no larger than ~2x FAIR's spread (insensitive by comparison
    # at this scale; the paper shows it as nearly flat).
    assert np.ptp(fedprox_acc) <= max(2.0 * np.ptp(fair_acc), 0.15)
    # Every configuration still learns.
    assert fair_acc.min() > 0.4


@pytest.mark.smoke
def test_fig5b_lr_accuracy_smoke(smoke_spec, engine):
    """Fast structural pass: the lr axis yields valid accuracies per system."""
    for system, kwargs in (("fairbfl", {}), ("fedprox", {"proximal_mu": 0.1})):
        hist = api.run(
            smoke_spec, engine=engine, system=system, learning_rate=LEARNING_RATES[1], **kwargs
        )
        assert 0.0 <= hist.average_accuracy() <= 1.0
