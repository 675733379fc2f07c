"""Runner scaling: serial vs cohort wall-clock for Procedure I.

Measures the wall-clock of full FAIR-BFL rounds at 10 / 50 / 200 clients under
the ``serial`` and ``cohort`` executor backends, and verifies the engine's
central determinism claim: **per-round histories are bit-identical across
backends** (every stochastic draw comes from the owning client's private RNG
stream, which only the coordinator draws from).  Because the serial backend
is the original per-client loop, backend parity also pins the cohort path to
the seed implementation's output.

The cohort backend uses its default process count (the usable CPUs divided by
the BLAS thread pin).  The bench reports the cohort/serial wall-clock ratio;
only parity is asserted.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit, emit_json, visible_cpus
from repro import api
from repro.core.results import ComparisonResult
from repro.runner.scenario import ScenarioSpec

CLIENT_COUNTS = (10, 50, 200)
BACKENDS = ("serial", "cohort")


def _scaling_spec(num_clients: int, backend: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"scaling[n={num_clients},backend={backend}]",
        system="fairbfl",
        num_clients=num_clients,
        num_samples=30 * num_clients,
        num_rounds=2,
        participation=0.5,
        epochs=2,
        batch_size=10,
        learning_rate=0.05,
        backend=backend,
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
        for backend in BACKENDS:
            spec = _scaling_spec(n, backend)
            engine.dataset_for(spec)  # exclude the (shared) partitioning cost
            start = time.perf_counter()
            history = api.run(spec, engine=engine)
            timings[backend] = time.perf_counter() - start
            fingerprints[backend] = _fingerprint(history)
            sim_delays[backend] = history.average_delay()
        rows.append((n, timings, fingerprints, sim_delays))
    return rows


def test_runner_scaling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    cpus = visible_cpus()

    table = ComparisonResult(
        title="Runner scaling -- wall-clock (s) of 2 FAIR-BFL rounds per backend",
        columns=["clients", "serial_s", "cohort_s", "cohort/serial"],
    )
    measurements = []
    for n, timings, _prints, sim_delays in rows:
        table.add_row(
            n,
            timings["serial"],
            timings["cohort"],
            timings["cohort"] / timings["serial"],
        )
        for backend in BACKENDS:
            measurements.append(
                {
                    "label": f"n={n},backend={backend}",
                    "clients": n,
                    "backend": backend,
                    "wall_time_s": timings[backend],
                    "simulated_avg_delay_s": sim_delays[backend],
                }
            )
    table.notes.append(f"CPUs visible to this process: {cpus}")
    emit(table, "runner_scaling.txt")
    emit_json(
        "runner_scaling",
        config={
            "client_counts": list(CLIENT_COUNTS),
            "backends": list(BACKENDS),
            "rounds_per_run": 2,
            "cpus_visible": cpus,
        },
        measurements=measurements,
        notes=["histories are asserted bit-identical across backends"],
        specs=[_scaling_spec(n, backend) for n in CLIENT_COUNTS for backend in BACKENDS],
    )

    # Determinism: every backend produced the exact same history at every scale.
    for n, _timings, fingerprints, _delays in rows:
        assert fingerprints["serial"] == fingerprints["cohort"], (
            f"backend histories diverged at {n} clients"
        )


@pytest.mark.smoke
def test_runner_scaling_smoke():
    """Fast structural pass: serial/cohort parity at the smallest scale."""
    engine = api.ExperimentEngine()
    histories = {
        backend: api.run(_scaling_spec(10, backend), engine=engine) for backend in BACKENDS
    }
    assert _fingerprint(histories["serial"]) == _fingerprint(histories["cohort"])
