"""Runner scaling: serial vs cohort wall-clock for Procedure I.

Measures the wall-clock of full FAIR-BFL rounds of the Figure-4 model (an MLP
with one 64-unit hidden layer) at 10 / 50 / 200 clients three ways: the
``serial`` backend in one process (``max_workers=1``), the ``serial`` backend
at the default process count, and the ``cohort`` backend at the default
process count.  The default is the usable CPUs divided by the BLAS thread pin;
a serial round is sharded over it only once its work reaches
``repro.fl.cohort.SHARD_WORK`` (here the 200-client round).  It verifies the
engine's central determinism claim: **per-round histories are bit-identical
across the three** (every stochastic draw comes from the owning client's
private RNG stream, and only the coordinator's streams count).  Because the
one-process serial backend is the original per-client loop, the parity also
pins the other two to the seed implementation's output.

The bench reports each wall-clock against one-process serial; only parity is
asserted.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit, emit_json, visible_cpus
from repro import api
from repro.core.results import ComparisonResult
from repro.fl.cohort import SHARD_WORK, CohortTrainer
from repro.runner.scenario import ScenarioSpec

CLIENT_COUNTS = (10, 50, 200)
#: (label, backend, max_workers): one-process serial, then the two at the default.
RUNS = (("serial_w1", "serial", 1), ("serial", "serial", None), ("cohort", "cohort", None))


def _scaling_spec(num_clients: int, backend: str, workers: int | None) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"scaling[n={num_clients},backend={backend},workers={workers}]",
        system="fairbfl",
        num_clients=num_clients,
        num_samples=30 * num_clients,
        num_rounds=2,
        participation=0.5,
        model_name="mlp",
        hidden_sizes=(64,),
        epochs=2,
        batch_size=10,
        learning_rate=0.05,
        backend=backend,
        max_workers=workers,
        seed=0,
    )


def _fingerprint(history) -> tuple:
    """Everything stochastic about a run, for exact cross-backend comparison."""
    return tuple(
        (r.round_index, r.accuracy, r.train_loss, r.delay, tuple(r.participants), tuple(r.attackers))
        for r in history.rounds
    )


def _sweep():
    # One engine shared across the sweep (dataset memoisation); runs go
    # through the public facade, the same path the CLI takes.
    engine = api.ExperimentEngine()
    rows = []
    for n in CLIENT_COUNTS:
        timings: dict[str, float] = {}
        fingerprints: dict[str, tuple] = {}
        sim_delays: dict[str, float] = {}
        # Untimed: the (shared) partitioning and the per-process key derivation.
        api.run(_scaling_spec(n, "serial", 1), engine=engine)
        for label, backend, workers in RUNS:
            spec = _scaling_spec(n, backend, workers)
            start = time.perf_counter()
            history = api.run(spec, engine=engine)
            timings[label] = time.perf_counter() - start
            fingerprints[label] = _fingerprint(history)
            sim_delays[label] = history.average_delay()
        rows.append((n, timings, fingerprints, sim_delays))
    return rows


def test_runner_scaling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    cpus = visible_cpus()
    workers = CohortTrainer(max_workers=None).max_workers

    table = ComparisonResult(
        title="Runner scaling -- wall-clock (s) of 2 FAIR-BFL rounds (Figure-4 MLP)",
        columns=[
            "clients", "serial_w1_s", "serial_s", "cohort_s", "serial/serial_w1",
            "cohort/serial_w1",
        ],
    )
    measurements = []
    for n, timings, _prints, sim_delays in rows:
        table.add_row(
            n,
            timings["serial_w1"],
            timings["serial"],
            timings["cohort"],
            timings["serial"] / timings["serial_w1"],
            timings["cohort"] / timings["serial_w1"],
        )
        for label, backend, run_workers in RUNS:
            measurements.append(
                {
                    "label": f"n={n},run={label}",
                    "clients": n,
                    "backend": backend,
                    "processes": workers if run_workers is None else run_workers,
                    "wall_time_s": timings[label],
                    "simulated_avg_delay_s": sim_delays[label],
                }
            )
    table.notes.append(f"CPUs visible to this process: {cpus}")
    table.notes.append(
        f"default process count: {workers}; a serial round shards from "
        f"{SHARD_WORK:,} units of work (samples x epochs x parameters)"
    )
    emit(table, "runner_scaling.txt")
    emit_json(
        "runner_scaling",
        config={
            "client_counts": list(CLIENT_COUNTS),
            "runs": [label for label, _backend, _workers in RUNS],
            "rounds_per_run": 2,
            "cpus_visible": cpus,
            "default_processes": workers,
        },
        measurements=measurements,
        notes=["histories are asserted bit-identical across the three runs"],
        specs=[_scaling_spec(n, b, w) for n in CLIENT_COUNTS for _label, b, w in RUNS],
    )

    # Determinism: every run produced the exact same history at every scale.
    for n, _timings, fingerprints, _delays in rows:
        assert fingerprints["serial_w1"] == fingerprints["serial"] == fingerprints["cohort"], (
            f"histories diverged at {n} clients"
        )


@pytest.mark.smoke
def test_runner_scaling_smoke():
    """Fast structural pass: the three runs' parity at the smallest scale."""
    engine = api.ExperimentEngine()
    prints = {
        _fingerprint(api.run(_scaling_spec(10, backend, workers), engine=engine))
        for _label, backend, workers in RUNS
    }
    assert len(prints) == 1
