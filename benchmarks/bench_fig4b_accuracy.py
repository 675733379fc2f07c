"""Figure 4b: average accuracy versus elapsed (simulated) time.

Paper result: FAIR-BFL reaches essentially the same accuracy as FedAvg;
FedProx converges to a lower accuracy and keeps fluctuating after convergence
(inexact local solutions).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import api
from repro.core.convergence import ConvergenceCriterion
from repro.core.results import ComparisonResult


def _run(base, engine):
    fair = api.run(base, engine=engine, system="fairbfl")
    fedavg = api.run(base, engine=engine, system="fedavg")
    fedprox = api.run(base, engine=engine, system="fedprox", proximal_mu=0.1)
    return fair, fedavg, fedprox


def test_fig4b_accuracy_vs_time(benchmark, bench_spec, engine):
    fair, fedavg, fedprox = benchmark.pedantic(
        _run, args=(bench_spec, engine), rounds=1, iterations=1
    )

    table = ComparisonResult(
        title="Figure 4b -- average accuracy vs elapsed simulated time",
        columns=["system", "round", "time_s", "accuracy"],
    )
    for name, hist in (("FAIR", fair), ("FedAvg", fedavg), ("FedProx", fedprox)):
        times, accs = hist.accuracy_vs_time()
        for i, (t, a) in enumerate(zip(times, accs)):
            table.add_row(name, i + 1, t, a)
    table.notes.append(
        f"final accuracy: FAIR={fair.final_accuracy():.3f}, "
        f"FedAvg={fedavg.final_accuracy():.3f}, FedProx={fedprox.final_accuracy():.3f}"
    )
    table.notes.append("paper: FAIR ~= FedAvg; FedProx converges lower and fluctuates")
    emit(table, "fig4b_accuracy.txt")

    # FAIR tracks FedAvg closely (within a few accuracy points at this scale).
    assert abs(fair.final_accuracy() - fedavg.final_accuracy()) < 0.1
    # Everyone learns something.
    assert fair.final_accuracy() > 0.5
    assert np.all(np.diff(fair.elapsed_times) > 0)
    # Convergence criterion is reachable within the configured horizon or accuracy is still rising.
    criterion = ConvergenceCriterion()
    assert criterion.has_converged(fair.accuracies) or fair.accuracies[-1] >= fair.accuracies[0]


@pytest.mark.smoke
def test_fig4b_accuracy_smoke(smoke_spec, engine):
    """Fast structural pass: the accuracy-vs-time series is well-formed."""
    fair = api.run(smoke_spec, engine=engine, system="fairbfl")
    times, accs = fair.accuracy_vs_time()
    assert len(times) == len(accs) == smoke_spec.num_rounds
    assert np.all(np.diff(fair.elapsed_times) > 0)
    assert all(0.0 <= a <= 1.0 for a in accs)
