"""Round modes: sync vs semi_sync vs async under straggler-heavy delays.

The discrete-event kernel makes the round discipline a measurable axis: the
same FAIR-BFL workload runs under the three ``round_mode`` settings with
deliberately heavy compute/upload jitter (a straggler-heavy edge network).
The synchronous round pays the slowest client twice (the local-phase barrier
plus its upload), the semi-synchronous round closes the upload window at a
deadline and drops stragglers, and the asynchronous round proceeds once half
the uploads are in, folding late gradients into the next round with
staleness-decayed weights.

Asserted (the paper-extension claim this bench pins):

* mean round delay: ``async < semi_sync < sync``;
* accuracy does not collapse — both relaxed modes finish within 10 accuracy
  points of sync on this workload.

Emits the human-readable table (``async_modes.txt``) and the machine-readable
perf record (``BENCH_async_modes.json``).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.core.fairbfl import FairBFLTrainer
from repro.core.results import ComparisonResult
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.sim.delay import DelayParameters
from repro.sim.rounds import ROUND_MODES

#: Straggler-heavy calibration: strong per-client compute/upload variance.
STRAGGLER_PARAMS = dict(compute_jitter=0.8, upload_jitter=1.0)

NUM_CLIENTS = 16
NUM_ROUNDS = 8
STRAGGLER_DEADLINE = 4.0


def _spec(round_mode: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"modes[{round_mode}]",
        system="fairbfl",
        num_clients=NUM_CLIENTS,
        num_samples=60 * NUM_CLIENTS,
        num_rounds=NUM_ROUNDS,
        participation=0.75,
        epochs=2,
        batch_size=10,
        learning_rate=0.05,
        round_mode=round_mode,
        straggler_deadline=STRAGGLER_DEADLINE,
        async_quorum=0.5,
        staleness_decay=0.5,
        seed=0,
    )


def _run_modes():
    engine = ExperimentEngine()
    results = {}
    for mode in ROUND_MODES:
        spec = _spec(mode)
        # Heavier jitter than the paper's calibration: the regime where the
        # round discipline matters.
        start = time.perf_counter()
        trainer = FairBFLTrainer(
            engine.dataset_for(spec), spec, delay_params=DelayParameters(**STRAGGLER_PARAMS)
        )
        history = trainer.run()
        wall = time.perf_counter() - start
        trainer.close()
        stragglers = sum(len(r.extras.get("stragglers", [])) for r in history.rounds)
        stale = sum(int(r.extras.get("stale_applied", 0)) for r in history.rounds)
        results[mode] = {
            "history": history,
            "wall_time_s": wall,
            "stragglers": stragglers,
            "stale_applied": stale,
        }
    return results


def test_round_modes(benchmark):
    results = benchmark.pedantic(_run_modes, rounds=1, iterations=1)

    table = ComparisonResult(
        title="Round modes under straggler-heavy delays (FAIR-BFL, n=16, m=2)",
        columns=[
            "round_mode",
            "avg_delay_s",
            "avg_accuracy",
            "final_accuracy",
            "stragglers",
            "stale_applied",
        ],
    )
    measurements = []
    for mode in ROUND_MODES:
        entry = results[mode]
        history = entry["history"]
        table.add_row(
            mode,
            history.average_delay(),
            history.average_accuracy(),
            history.final_accuracy(),
            entry["stragglers"],
            entry["stale_applied"],
        )
        measurements.append(
            {
                "label": mode,
                "wall_time_s": entry["wall_time_s"],
                "simulated_avg_delay_s": history.average_delay(),
                "avg_accuracy": history.average_accuracy(),
                "final_accuracy": history.final_accuracy(),
                "stragglers": entry["stragglers"],
                "stale_applied": entry["stale_applied"],
            }
        )
    table.notes.append(
        f"straggler-heavy calibration: {STRAGGLER_PARAMS}; "
        f"semi_sync deadline {STRAGGLER_DEADLINE}s, async quorum 0.5"
    )
    emit(table, "async_modes.txt")
    emit_json(
        "async_modes",
        config={
            "num_clients": NUM_CLIENTS,
            "num_rounds": NUM_ROUNDS,
            "participation": 0.75,
            "straggler_deadline": STRAGGLER_DEADLINE,
            "async_quorum": 0.5,
            "staleness_decay": 0.5,
            "delay_params": STRAGGLER_PARAMS,
        },
        measurements=measurements,
        notes=["assertion: mean delay async < semi_sync < sync"],
        specs=[_spec(mode) for mode in ROUND_MODES],
    )

    sync_d = results["sync"]["history"].average_delay()
    semi_d = results["semi_sync"]["history"].average_delay()
    async_d = results["async"]["history"].average_delay()
    assert semi_d < sync_d, f"semi_sync not faster than sync ({semi_d:.2f} vs {sync_d:.2f})"
    assert async_d < semi_d, f"async not faster than semi_sync ({async_d:.2f} vs {semi_d:.2f})"
    # Dropping/deferring stragglers must not wreck learning on this workload.
    sync_acc = results["sync"]["history"].final_accuracy()
    for mode in ("semi_sync", "async"):
        acc = results[mode]["history"].final_accuracy()
        assert acc > sync_acc - 0.10, f"{mode} accuracy collapsed: {acc:.3f} vs sync {sync_acc:.3f}"
    # The relaxed modes actually exercised their mechanisms.
    assert results["semi_sync"]["stragglers"] > 0
    assert results["async"]["stale_applied"] > 0


@pytest.mark.smoke
def test_round_modes_smoke():
    """Fast structural pass: every round mode runs under the default calibration."""
    engine = ExperimentEngine()
    for mode in ROUND_MODES:
        spec = _spec(mode).with_overrides(
            name=f"modes-smoke[{mode}]", num_clients=8, num_samples=480, num_rounds=2
        )
        history = engine.run(spec)
        assert len(history) == 2
        assert all(r.delay > 0 for r in history.rounds)
