"""Ablation: fair aggregation (Equation 1) vs simple averaging.

The paper's fair aggregation assigns contribution-based weights instead of the
uniform 1/n.  This ablation compares the two aggregation rules with and
without attackers present (the discard strategy disabled, so the aggregation
rule is the only defence).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro import api
from repro.core.results import ComparisonResult


def _run(base, engine):
    results = {}
    for label, use_fair, attacks in (
        ("fair_agg/clean", True, False),
        ("simple_avg/clean", False, False),
        ("fair_agg/attacked", True, True),
        ("simple_avg/attacked", False, True),
    ):
        hist = api.run(
            base,
            engine=engine,
            system="fairbfl",
            name=label,
            use_fair_aggregation=use_fair,
            attacks=attacks,
            attack_name="scaling",
            strategy="keep",
        )
        results[label] = (hist.average_accuracy(), hist.final_accuracy())
    return results


def test_ablation_aggregation_rule(benchmark, bench_spec, engine):
    results = benchmark.pedantic(_run, args=(bench_spec, engine), rounds=1, iterations=1)

    table = ComparisonResult(
        title="Ablation -- fair aggregation (Eq. 1) vs simple averaging",
        columns=["configuration", "average_accuracy", "final_accuracy"],
    )
    for label, (avg, final) in results.items():
        table.add_row(label, avg, final)
    table.notes.append(
        "with honest clients the two rules coincide closely; under attack the Eq.-1 weighting "
        "(weights proportional to distance) amplifies unfiltered outliers, so it must be paired "
        "with the discard strategy -- which is exactly how the paper deploys it"
    )
    emit(table, "ablation_aggregation.txt")

    # On clean data, fair aggregation tracks simple averaging (paper: FAIR ~= FedAvg).
    assert abs(results["fair_agg/clean"][1] - results["simple_avg/clean"][1]) < 0.1
    # Attacks hurt both un-defended configurations relative to clean runs.
    assert results["fair_agg/attacked"][1] <= results["fair_agg/clean"][1] + 0.02
    assert results["simple_avg/attacked"][1] <= results["simple_avg/clean"][1] + 0.02


@pytest.mark.smoke
def test_ablation_aggregation_smoke(smoke_spec, engine):
    """Fast structural pass: both aggregation rules run at toy scale."""
    fair = api.run(smoke_spec, engine=engine, name="fair_agg/smoke", use_fair_aggregation=True)
    simple = api.run(smoke_spec, engine=engine, name="simple_avg/smoke", use_fair_aggregation=False)
    assert len(fair) == len(simple) == smoke_spec.num_rounds
    assert 0.0 <= fair.final_accuracy() <= 1.0
    assert 0.0 <= simple.final_accuracy() <= 1.0
