"""Population scaling: the vectorized cohort engine at 100k clients per round.

Procedure-I local training is embarrassingly parallel across the selected
clients, but the per-client Python path pays interpreter and allocation
overhead for every client (and, past cache scale, a ~60 KB parameter copy per
client per step), so its wall-clock grows *faster* than linearly with the
population.  The cohort backend batches the whole cohort into
``(clients, batch, features)`` numpy ops instead; its per-client cost is flat,
so the speed-up over the per-client path *grows* with the population — the
superlinear-scaling claim this bench measures and asserts.

Three scales:

* ``n=64`` — both backends run for real; the cohort history must be
  **byte-identical** to the serial one (the engine's bit-exactness contract,
  fuzzed broadly in ``tests/test_cohort_parity.py``).  At this scale the
  cohort engine is allowed to *lose* on wall-clock: one under-filled chunk
  cannot amortise its setup.
* ``n=1024`` — serial runs for real one last time; its per-client rate is the
  extrapolation basis for the scales where running serial would take minutes.
* ``n=20_000``, ``n=100_000`` and ``n=250_000`` — cohort only (above the
  trainer's ``STREAM_THRESHOLD``, so these rounds stream per-cohort blocks
  into a running aggregate instead of materialising 100k ``ClientUpdate``
  objects).  The population is synthesised with ``distinct_shards=64``
  archetype shards shared cyclically as array views, which is how 100k
  clients fit in memory.  250 000 is the first size above the ceiling the
  round pricing used to impose (five kernel events per client against a
  1 000 000-event budget); it is measured and reported, the assertions stay
  on the 100k cell.

The headline assertion: ``speedup(100k) > 2`` **and**
``speedup(100k) > 2 x speedup(64)`` — the ratio must grow with n, not merely
exist.  Serial baselines at 20k/100k are linear extrapolations of the
measured n=1024 per-client rate, which is *conservative*: the profiled serial
path only gets slower per client as the population outgrows the cache.

The ``smoke`` marker runs the n=64 parity cell only:
``pytest benchmarks/bench_population_scaling.py -m smoke``.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.conftest import emit, emit_json, visible_cpus
from repro import api
from repro.core.results import ComparisonResult
from repro.fl.fedavg import FedAvgTrainer
from repro.runner.scenario import ScenarioSpec
from repro.store.records import history_to_payload

SMALL_N = 64  # both backends, byte parity + measured speed-up
RATE_N = 1024  # last scale where serial runs for real (per-client rate basis)
HEADLINE_N = 100_000  # the cell the speed-up assertions are about
LARGE_NS = (20_000, HEADLINE_N, 250_000)  # cohort only, streaming rounds
SMALL_ROUNDS = 3  # tiny runs get extra rounds so their timings are stable
MIN_SPEEDUP_AT_100K = 2.0
GROWTH_FACTOR = 2.0  # speedup(100k) must exceed this multiple of speedup(64)


def _population_spec(num_clients: int, backend: str, *, num_rounds: int = 1) -> ScenarioSpec:
    # distinct_shards pins the per-client workload across scales: every run
    # draws from the same 64 archetype shards (~26 train samples each), so the
    # n=1024 serial rate extrapolates apples-to-apples to n=100k.
    return ScenarioSpec(
        name=f"population[n={num_clients},backend={backend}]",
        system="fedavg",
        num_clients=num_clients,
        num_samples=2048,
        distinct_shards=64,
        num_rounds=num_rounds,
        participation=1.0,
        scheme="dirichlet",
        model_name="logreg",
        epochs=1,
        batch_size=32,
        learning_rate=0.05,
        backend=backend,
        seed=0,
    )


def _canonical_history(history) -> str:
    """The byte-comparable form of a history (every round field, extras included).

    The label is excluded: it carries the spec *name*, which embeds the
    backend and is deliberately outside the determinism contract.
    """
    payload = history_to_payload(history)
    payload.pop("label", None)
    return json.dumps(payload, sort_keys=True)


def _timed_run(engine, spec: ScenarioSpec):
    engine.dataset_for(spec)  # exclude the (shared) partitioning cost
    start = time.perf_counter()
    history = api.run(spec, engine=engine)
    return history, time.perf_counter() - start


def test_population_scaling(benchmark):
    engine = api.ExperimentEngine()

    def _sweep():
        out = {}
        for backend in ("serial", "cohort"):
            out[(SMALL_N, backend)] = _timed_run(
                engine, _population_spec(SMALL_N, backend, num_rounds=SMALL_ROUNDS)
            )
        out[(RATE_N, "serial")] = _timed_run(engine, _population_spec(RATE_N, "serial"))
        for n in LARGE_NS:
            out[(n, "cohort")] = _timed_run(engine, _population_spec(n, "cohort"))
        return out

    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    # -- parity: the cohort engine is bit-exact against the serial path ----
    serial_small, t_serial_small = runs[(SMALL_N, "serial")]
    cohort_small, t_cohort_small = runs[(SMALL_N, "cohort")]
    assert _canonical_history(cohort_small) == _canonical_history(serial_small), (
        f"cohort history diverged from serial at n={SMALL_N}"
    )

    # -- speed-ups ---------------------------------------------------------
    _, t_serial_rate = runs[(RATE_N, "serial")]
    serial_per_client = t_serial_rate / RATE_N
    speedups = {SMALL_N: t_serial_small / t_cohort_small}
    for n in LARGE_NS:
        _, t_cohort = runs[(n, "cohort")]
        speedups[n] = serial_per_client * n / t_cohort

    table = ComparisonResult(
        title="Population scaling -- per-client vs vectorized cohort engine",
        columns=["clients", "serial_s", "cohort_s", "speedup"],
    )
    measurements = []
    for n in (SMALL_N, RATE_N, *LARGE_NS):
        t_serial = (
            runs[(n, "serial")][1]
            if (n, "serial") in runs
            else serial_per_client * n
        )
        t_cohort = runs[(n, "cohort")][1] if (n, "cohort") in runs else None
        table.add_row(
            n,
            t_serial,
            float("nan") if t_cohort is None else t_cohort,
            speedups.get(n, float("nan")),
        )
        measurements.append(
            {
                "label": f"n={n}",
                "clients": n,
                "serial_wall_s": t_serial,
                "serial_extrapolated": (n, "serial") not in runs,
                "cohort_wall_s": t_cohort,  # None when serial-only at this scale
                "speedup": speedups.get(n),
            }
        )
    table.notes.append(
        f"serial at n>{RATE_N} extrapolated from the measured n={RATE_N} per-client "
        f"rate ({serial_per_client * 1e3:.3f} ms/client-round)"
    )
    table.notes.append(f"CPUs visible to this process: {visible_cpus()}")
    emit(table, "population_scaling.txt")
    emit_json(
        "population_scaling",
        config={
            "scales": [SMALL_N, RATE_N, *LARGE_NS],
            "distinct_shards": 64,
            "stream_threshold": FedAvgTrainer.STREAM_THRESHOLD,
            "cpus_visible": visible_cpus(),
        },
        measurements=measurements,
        notes=[
            f"cohort history asserted byte-identical to serial at n={SMALL_N}",
            "speed-up asserted to grow with population (superlinear scaling)",
        ],
        specs=[
            _population_spec(SMALL_N, "serial", num_rounds=SMALL_ROUNDS),
            _population_spec(SMALL_N, "cohort", num_rounds=SMALL_ROUNDS),
            _population_spec(RATE_N, "serial"),
            *(_population_spec(n, "cohort") for n in LARGE_NS),
        ],
    )

    # -- the large rounds really streamed, every client priced ---------------
    for n in LARGE_NS:
        record = runs[(n, "cohort")][0].rounds[-1]
        assert len(record.participants) == n
        stream = record.extras.get("cohort_stream")
        assert stream is not None, f"n={n} round did not take the streaming path"
        assert stream["clients"] == n

    # -- superlinear scaling ------------------------------------------------
    assert speedups[HEADLINE_N] > MIN_SPEEDUP_AT_100K, (
        f"cohort engine too slow at n={HEADLINE_N}: {speedups[HEADLINE_N]:.2f}x serial"
    )
    assert speedups[HEADLINE_N] > GROWTH_FACTOR * speedups[SMALL_N], (
        "speed-up did not grow with the population: "
        f"{speedups[SMALL_N]:.2f}x at n={SMALL_N} vs "
        f"{speedups[HEADLINE_N]:.2f}x at n={HEADLINE_N}"
    )


@pytest.mark.smoke
def test_population_scaling_smoke():
    """Fast structural pass: byte parity at n=64 (no pytest-benchmark timing)."""
    engine = api.ExperimentEngine()
    serial = api.run(_population_spec(SMALL_N, "serial", num_rounds=2), engine=engine)
    cohort = api.run(_population_spec(SMALL_N, "cohort", num_rounds=2), engine=engine)
    assert _canonical_history(cohort) == _canonical_history(serial)
