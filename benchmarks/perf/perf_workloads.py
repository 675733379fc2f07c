"""The four benchmark workloads: inputs, timed sections and output checks.

Every workload is one fixed *unit* of work generated from ``--seed`` (the seed
is added to every ``ScenarioSpec.seed``; the program only ever receives the
generated specs).  ``setup()`` is what a user waits for before the first
round (spec validation, dataset synthesis, trainer construction incl. keygen,
or daemon boot), ``run_unit()`` is the timed section, ``checks()`` decides
whether the outputs are correct.  Sizes are committed here; ``--scale smoke``
shrinks them for the tier-1 smoke test and is never used for a measurement.

Why these four (one sentence each; the README expands):

* ``fig4_sync`` — what ``repro run``/``compare`` users execute: per-client
  local SGD dominates, Algorithm 2 second, chain/crypto a few percent, no net.
* ``committee_adversarial`` — the other use of ``core``'s round loop (gossip
  path, 8 miners, attackers, defense, a split, a heal-time reorg, churn):
  local SGD shrinks and chain/incentive/defense/net do the work.
* ``cohort_population`` — the same ``fl`` layer through the batched cohort
  kernels and the streaming fold; no chain, crypto, incentive or net at all.
* ``sweep_serve`` — tiny cells so ``runner``/``systems``/``store``/``serve``/
  ``datasets`` do the work, and per-run set-up cost is paid per cell and job.

All partitions use ``scheme="shard"``: the default Dirichlet split hands some
client a one-sample shard on some seeds (240 clients x 20 samples fails on 5
of 40), and the benchmark must not have operations that fail by construction.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from perf_clock import clock
from repro import api
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.serve.client import ServeClient, ServeClientError
from repro.store.keys import canonical_json
from repro.store.records import history_from_payload, history_to_payload
from repro.store.runstore import RunStore
from repro.systems import get_system

__all__ = ["WORKLOADS", "Unit", "make_workload", "layer_metrics", "percentile"]

#: Scratch space for stores the benchmark creates (gitignored ``results/``).
SCRATCH = Path(__file__).resolve().parent / "results"

#: The one closed-loop client cap: this box has two cores.
CLIENT_THREADS = 2


@dataclass
class Unit:
    """What one timed unit of a workload produced."""

    #: Seconds of the timed section.  Like every section and op time here this
    #: is :func:`perf_clock.clock` time (wall minus own kernel CPU) read at the
    #: reference speed (:meth:`perf_clock.Calibrator.bracket`); only single
    #: request and job latencies are raw wall time.
    wall_s: float
    #: The span-covered ops' seconds as clocked, before they are read at the
    #: reference speed: what a traced run's span self times must add up to.
    clocked_s: float
    #: Seconds of each op the median is taken over (a round; for
    #: ``sweep_serve`` one cold cell divided by its rounds).
    op_s: list[float]
    client_updates: int
    ops_attempted: int
    ops_failed: int
    avg_accuracy: float
    #: SHA-256 over the full-fidelity history payload(s).
    digest: str
    #: Average simulated delay per round — must repeat exactly, like the digest.
    sim_delay: float
    failures: list[str] = field(default_factory=list)
    #: Counts and timings that only feed per-layer metrics.
    extra: dict = field(default_factory=dict)


class ProcessMeter:
    """Raw wall seconds, kernel CPU seconds and minor faults of a timed section."""

    def __init__(self) -> None:
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        self._started = time.perf_counter()

    def stop(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return dict(
            process_wall_s=time.perf_counter() - self._started,
            process_kernel_s=usage.ru_stime - self._usage.ru_stime,
            process_minor_faults=usage.ru_minflt - self._usage.ru_minflt,
        )


def history_digest(history) -> str:
    payload = history_to_payload(history)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


# ---------------------------------------------------------------------------
# Training workloads: one trainer, stepped one round at a time.
# ---------------------------------------------------------------------------

_FIG4 = dict(
    system="fairbfl", num_clients=100, num_samples=10_000, participation=0.5,
    scheme="shard", model_name="mlp", hidden_sizes=(64,), epochs=2, batch_size=10,
    learning_rate=0.05, miners=2, verify_signatures=True, use_real_pow=True,
    pow_difficulty=16.0, topology="global", backend="serial", num_rounds=24,
)
_COMMITTEE = dict(
    system="fairbfl-discard", num_clients=240, num_samples=4800, participation=1.0,
    scheme="shard", model_name="logreg", epochs=1, attacks=True, attack_name="mixed",
    min_attackers=20, max_attackers=40, defense="norm_clip+multi_krum", miners=8,
    topology="ring", pow_difficulty=18.0, num_rounds=20,
    # Miners 0-3 split from 4-7 for rounds 4-8 and heal with a reorg in round 9;
    # miner 7 is offline for rounds 10-13, so uploads addressed to it are lost.
    partition="4-8:0,1,2,3", churn="10:-7;14:+7",
)
# 9 cohort chunks of 512 per round, above FedAvgTrainer.STREAM_THRESHOLD (4096)
# so the streaming fold runs.  Six ~1.8 s rounds rather than three of 8192
# clients: a round's time here is heavy-tailed (2.7-6.7 s measured for the
# same work), and the median needs the samples.
_COHORT = dict(
    system="fedavg", backend="cohort", num_clients=4608, num_samples=2048,
    distinct_shards=64, participation=1.0, scheme="shard", model_name="logreg",
    epochs=1, batch_size=32, num_rounds=6,
)
_SMOKE = {
    "fig4_sync": dict(num_clients=10, num_samples=600, num_rounds=2),
    "committee_adversarial": dict(
        num_clients=48, num_samples=960, min_attackers=4, max_attackers=8, num_rounds=3,
        partition="0-0:0,1,2,3", churn="2:-7;3:+7",
    ),
    # Above FedAvgTrainer.STREAM_THRESHOLD, or the streaming fold is bypassed.
    "cohort_population": dict(num_clients=4096, num_samples=64, distinct_shards=8, num_rounds=1),
}


class TrainingWorkload:
    """A single scenario run, timed round by round through ``run_until``."""

    fields: dict = {}

    def __init__(self, name: str, seed: int, scale: str) -> None:
        self.name = name
        fields = dict(self.fields)
        if scale == "smoke":
            fields.update(_SMOKE[name])
        self.spec = ScenarioSpec(name=name, seed=seed, **fields)
        self.rounds = self.spec.num_rounds

    # -- lifecycle ------------------------------------------------------
    def setup(self):
        spec = self.spec.validate()
        system = get_system(spec.system)
        # A fresh engine per set-up: its dataset memo must not hide synthesis.
        return system.build(spec, ExperimentEngine().dataset_for(spec))

    def teardown(self, run) -> None:
        run.trainer.close()

    def run_unit(self, run, calibrator, tracer=None) -> Unit:
        trainer = run.trainer
        op_s: list[float] = []
        clocked_s = 0.0
        failures: list[str] = []
        meter = ProcessMeter()
        speed = calibrator.sample()
        try:
            for target in range(1, self.rounds + 1):
                if tracer is not None:
                    tracer.scope = target - 1
                t0 = clock()
                trainer.run_until(target)
                seconds = clock() - t0
                slowdown, speed = calibrator.bracket(speed), calibrator.slowdown
                clocked_s += seconds
                op_s.append(seconds / slowdown)
                if tracer is not None:
                    tracer.slowdown[target - 1] = slowdown
        except Exception as exc:  # noqa: BLE001 - a failed round is a failed op, reported below
            failures.append(f"round {len(op_s)} raised {type(exc).__name__}: {exc}")
        wall_s = sum(op_s)
        process = meter.stop()
        if tracer is not None:
            tracer.scope = None
        history = trainer.history
        records = history.rounds
        bad = sum(1 for r in records if not math.isfinite(r.accuracy))
        if bad:
            failures.append(f"{bad} round(s) reported a non-finite accuracy")
        unit = Unit(
            wall_s=wall_s,
            clocked_s=clocked_s,
            op_s=op_s,
            client_updates=sum(len(r.participants) for r in records),
            ops_attempted=self.rounds,
            ops_failed=self.rounds - len(records) + bad,
            avg_accuracy=history.average_accuracy(),
            # canonical_json refuses NaN; such a run has already failed above.
            digest="" if bad else history_digest(history),
            sim_delay=history.average_delay(),
            failures=failures,
        )
        if not failures:
            unit.failures.extend(self.checks(trainer, records))
            unit.extra = dict(self.observations(trainer, records), **process)
        return unit

    # -- outputs --------------------------------------------------------
    def checks(self, trainer, records) -> list[str]:
        return []

    def observations(self, trainer, records) -> dict:
        return {}


#: Assumption 2: one block finalises a round, so the ledger grows by exactly
#: this many blocks per round on top of genesis.
BLOCKS_PER_ROUND = 1


class Fig4Sync(TrainingWorkload):
    fields = _FIG4

    def checks(self, trainer, records) -> list[str]:
        height, expected = trainer.chain.height, 1 + self.rounds * BLOCKS_PER_ROUND
        if height != expected:
            return [f"chain height {height}, expected genesis + rounds = {expected}"]
        return []

    def observations(self, trainer, records) -> dict:
        return _fairbfl_observations(trainer, records)


class CommitteeAdversarial(TrainingWorkload):
    fields = _COMMITTEE

    def checks(self, trainer, records) -> list[str]:
        # The expected windows are read back from the spec's own schedule strings.
        first, last = (int(r) for r in self.spec.partition.split(":")[0].split("-"))
        leaves, rejoins = (int(e.split(":")[0]) for e in self.spec.churn.split(";"))
        failures = []
        nets = [r.extras["net"] for r in records]
        for index, net in enumerate(nets):
            views = 2 if first <= index <= last else 1
            if net["chain_views"] != views:
                failures.append(
                    f"round {index}: {net['chain_views']} chain views, expected {views}"
                )
            if net["lost_uploads"] and not leaves <= index < rejoins:
                failures.append(f"round {index}: uploads lost while every miner was online")
        lost = sum(net["lost_uploads"] for net in nets)
        if lost <= 0:
            failures.append("no upload was lost while miner 7 was offline")
        if nets[-1]["total_reorgs"] < 1:
            failures.append("the heal after the split caused no reorg")
        if not trainer.chain.is_valid():
            failures.append("the canonical chain does not validate")
        return failures

    def observations(self, trainer, records) -> dict:
        nets = [r.extras["net"] for r in records]
        out = _fairbfl_observations(trainer, records)
        out.update(
            reorgs=nets[-1]["total_reorgs"],
            lost_uploads=sum(net["lost_uploads"] for net in nets),
            components=sum(len(net["components"]) for net in nets),
        )
        return out


def _fairbfl_observations(trainer, records) -> dict:
    return dict(
        detection_rate=trainer.average_detection_rate(),
        defense_rejected=sum(len(r.extras["defense_rejected"]) for r in records),
        sim_events=sum(r.extras["sim_events"] for r in records),
        fallbacks=sum(bool(r.extras["used_clustering_fallback"]) for r in records),
        uploads=sum(len(r.participants) for r in records),
    )


class CohortPopulation(TrainingWorkload):
    fields = _COHORT

    def checks(self, trainer, records) -> list[str]:
        missing = [r.round_index for r in records if not r.extras.get("cohort_stream")]
        if missing:
            return [f"rounds {missing} did not take the streaming cohort path"]
        return []

    def observations(self, trainer, records) -> dict:
        return dict(cohort_blocks=sum(r.extras["cohort_stream"]["blocks"] for r in records))


# ---------------------------------------------------------------------------
# sweep_serve: cold sweep, resume, served reads, served jobs, dedup.
# ---------------------------------------------------------------------------

_CELL = dict(num_clients=12, num_samples=600, num_rounds=3, epochs=1, scheme="shard")
#: (cells per axis, reads, warm-up reads, jobs, identical submissions)
_SWEEP_SIZES = {
    "full": dict(seeds=(6, 10, 12, 16), reads=10_000, warmup=300, jobs=20, identical=8),
    "smoke": dict(seeds=(0, 1, 1, 2), reads=200, warmup=6, jobs=2, identical=4),
}


def sweep_documents(seed: int, seeds: tuple[int, int, int, int]) -> list[dict]:
    """The committed grid as scenario documents (96 cells at full scale).

    ``fairbfl`` x round mode x learning rate, ``fairbfl-discard`` under attack
    x defense, the two FL baselines, and the vanilla blockchain — each over a
    block of consecutive seeds starting at ``seed``.
    """
    def block(count: int) -> list[int]:
        return [seed + i for i in range(count)]

    documents = [
        {
            "base": dict(_CELL, name="fairbfl", system="fairbfl"),
            "matrix": {
                "round_mode": ["sync", "semi_sync", "async"],
                "learning_rate": [0.02, 0.05],
                "seed": block(seeds[0]),
            },
        },
        {
            "base": dict(_CELL, name="discard", system="fairbfl-discard", attacks=True),
            "matrix": {"defense": ["none", "median"], "seed": block(seeds[1])},
        },
        {
            "base": dict(_CELL, name="baseline"),
            "matrix": {"system": ["fedavg", "fedprox"], "seed": block(seeds[2])},
        },
        {
            "base": dict(_CELL, name="chain", system="blockchain"),
            "matrix": {"seed": block(seeds[3])},
        },
    ]
    return [doc for doc in documents if doc["matrix"]["seed"]]


class SweepServe:
    """The platform path: ``api.sweep`` into a store, then the daemon over it."""

    def __init__(self, name: str, seed: int, scale: str) -> None:
        self.name = name
        self.seed = seed
        self.sizes = _SWEEP_SIZES[scale]
        self._stores = 0

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> dict:
        specs = [
            spec
            for document in sweep_documents(self.seed, self.sizes["seeds"])
            for spec in api.load_scenario(document)
        ]
        # Fresh fairbfl cells the daemon has never seen, for phases d and e.
        fresh = [
            ScenarioSpec(name=f"job-{i}", system="fairbfl", seed=self.seed + 1000 + i, **_CELL)
            for i in range(self.sizes["jobs"] + 1)
        ]
        self._stores += 1
        root = SCRATCH / f"store-{os.getpid()}-{self._stores}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        boot_started = clock()
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--store", str(root)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        state = dict(specs=specs, fresh=fresh, root=root, daemon=daemon)
        try:
            banner = daemon.stdout.readline()
            if "listening on " not in banner:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            state["url"] = banner.split("listening on ")[1].split()[0]
            client = ServeClient(state["url"], timeout=10.0)
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    client.health()
                    break
                except ServeClientError:  # not accepting yet; retried until the deadline
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.teardown(state)
            raise
        state["boot_s"] = clock() - boot_started
        return state

    def teardown(self, state: dict) -> None:
        daemon = state["daemon"]
        daemon.terminate()
        try:
            daemon.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
        shutil.rmtree(state["root"], ignore_errors=True)

    # -- the timed section ----------------------------------------------
    def run_unit(self, state: dict, calibrator, tracer=None) -> Unit:
        def scope(label: str | None) -> None:
            if tracer is not None:
                tracer.scope = label

        def timed(phase: str, section) -> None:
            speed = calibrator.sample()
            started = clock()
            section()
            seconds = clock() - started
            slowdown = calibrator.bracket(speed)
            phases[phase] = seconds / slowdown
            if tracer is not None:
                tracer.slowdown[tracer.scope] = slowdown

        specs, sizes = state["specs"], self.sizes
        store = RunStore(state["root"])
        failures: list[str] = []
        digests: list[str] = []
        phases: dict[str, float] = {}
        meter = ProcessMeter()

        # (a) cold sweep into the empty store, one cell at a time.
        scope("a_cold_sweep")
        engine = ExperimentEngine(store=store)
        cell_s: list[float] = []
        clocked_s = 0.0
        cells: list[tuple[ScenarioSpec, object]] = []
        failed_cells = 0
        slowdowns: list[float] = []
        for first in range(0, len(specs), 8):  # a speed sample every 8 cells
            speed = calibrator.sample()
            chunk_s: list[float] = []
            for spec in specs[first : first + 8]:
                t0 = clock()
                try:
                    history = engine.run(spec)
                except Exception as exc:  # noqa: BLE001 - a failed cell is a failed op
                    failed_cells += 1
                    failures.append(f"cell {spec.name} raised {type(exc).__name__}: {exc}")
                    continue
                chunk_s.append(clock() - t0)
                cells.append((spec, history))
            slowdowns.append(calibrator.bracket(speed))
            clocked_s += sum(chunk_s)
            cell_s.extend(seconds / slowdowns[-1] for seconds in chunk_s)
        phases["a"] = sum(cell_s)
        if tracer is not None:
            tracer.slowdown[tracer.scope] = statistics.fmean(slowdowns)
        histories = [history for _spec, history in cells]
        stored = {store.key_for(spec): history_digest(history) for spec, history in cells}
        digests.extend(stored.values())
        failed_cells += sum(1 for h in histories if not all(map(math.isfinite, h.accuracies)))
        if engine.runs_computed != len(specs):
            failures.append(f"cold sweep computed {engine.runs_computed} of {len(specs)} cells")

        # (b) the same sweep resumed: every cell must load, none compute.
        scope("b_resume")
        resumed = ExperimentEngine(store=store)
        timed("b", lambda: api.sweep(specs, engine=resumed))
        if resumed.cache_hits != len(specs) or resumed.runs_computed != 0:
            failures.append(
                f"resume loaded {resumed.cache_hits} and computed {resumed.runs_computed} "
                f"of {len(specs)} cells; expected all loaded, none computed"
            )

        # (c) closed loop, one keep-alive connection, stored reads over all keys.
        scope("c_stored_reads")
        keys = list(stored)
        host, _, port = state["url"].removeprefix("http://").partition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30.0)
        read_s: list[float] = []
        failed_reads = 0
        try:
            for i in range(sizes["warmup"]):
                status, body = _get(conn, keys[i % len(keys)])
                if i < len(keys) and status == 200:
                    served = history_from_payload(json.loads(body)["history"])
                    if history_digest(served) != stored[keys[i]]:
                        failures.append(f"served record {keys[i][:12]} differs from the store's")
            def reads() -> None:
                nonlocal failed_reads
                for i in range(sizes["reads"]):
                    t0 = time.perf_counter()
                    status, _body = _get(conn, keys[i % len(keys)])
                    read_s.append(time.perf_counter() - t0)
                    failed_reads += status != 200

            timed("c", reads)
        finally:
            conn.close()
        if failed_reads:
            failures.append(f"{failed_reads} stored read(s) did not answer 200")

        # (d) closed loop, two client threads, distinct fresh cells: submit + wait.
        scope("d_jobs")
        jobs = state["fresh"][: sizes["jobs"]]
        done: list[dict] = []

        def submitter(chunk: list[ScenarioSpec]) -> None:
            client = ServeClient(state["url"])
            for spec in chunk:
                record = dict(name=spec.name, state="error", t0=time.perf_counter())
                done.append(record)
                try:
                    job = client.submit(spec)[0]
                    record["submit_s"] = time.perf_counter() - record["t0"]
                    record["job_id"] = job["job_id"]
                    final = client.wait(job["job_id"], timeout=120.0)
                    record["state"] = final["state"]
                    record["key"] = final.get("result_key")
                except Exception as exc:  # noqa: BLE001 - a failed job is a failed op
                    record["state"] = f"{type(exc).__name__}: {exc}"
                record["done_s"] = time.perf_counter() - record["t0"]

        timed("d", lambda: _run_threads([
            threading.Thread(target=submitter, args=(jobs[i::CLIENT_THREADS],))
            for i in range(CLIENT_THREADS)
        ]))
        failed_jobs = [r for r in done if r["state"] != "done"]
        for record in failed_jobs:
            failures.append(f"job {record['name']} ended as {record['state']}")
        probe = ServeClient(state["url"])
        for record in sorted(done, key=lambda r: r["name"]):
            if record["state"] == "done":
                digests.append(history_digest(probe.history(record["key"])))

        # (e) simultaneous identical submissions: exactly one computation.
        scope("e_dedup")
        before = probe.health()
        barrier = threading.Barrier(sizes["identical"])
        same = state["fresh"][-1]
        outcomes: list[str] = []

        def identical() -> None:
            client = ServeClient(state["url"])
            try:
                barrier.wait(timeout=30.0)
                job = client.submit(same)[0]
                outcomes.append(client.wait(job["job_id"], timeout=120.0)["state"])
            except Exception as exc:  # noqa: BLE001 - a failed submission is a failed op
                outcomes.append(f"{type(exc).__name__}: {exc}")

        timed("e", lambda: _run_threads(
            [threading.Thread(target=identical) for _ in range(sizes["identical"])]
        ))
        after = probe.health()
        computed = after["engine"]["runs_computed"] - before["engine"]["runs_computed"]
        failed_identical = sum(1 for state_ in outcomes if state_ != "done")
        if failed_identical or len(outcomes) != sizes["identical"]:
            failures.append(f"identical submissions ended as {sorted(outcomes)}")
        if computed != 1:
            failures.append(f"{sizes['identical']} identical submissions computed {computed} runs")

        scope(None)
        accuracies = [h.average_accuracy() for h in histories]
        delays = [h.average_delay() for h in histories]
        latencies = [r["done_s"] for r in done]
        extra = dict(
            meter.stop(),
            phases=phases,
            boot_s=state["boot_s"],
            cells_per_s=len(specs) / phases["a"],
            resume_cells_per_s=len(specs) / phases["b"],
            cache_hits=resumed.cache_hits,
            runs_computed=engine.runs_computed,
            read_s=read_s,
            stored_reads_per_s=sizes["reads"] / phases["c"],
            jobs=done,
            jobs_per_s=len(jobs) / phases["d"],
            submit_to_done_p50_ms=statistics.median(latencies) * 1000.0,
            submit_to_done_p90_ms=percentile(latencies, 0.9) * 1000.0,
            dedup_hits=sum(
                after[k] - before[k] for k in ("singleflight_hits", "readthrough_hits")
            ),
            daemon_runs_computed=after["engine"]["runs_computed"],
        )
        return Unit(
            wall_s=sum(phases.values()),
            clocked_s=clocked_s,
            op_s=[seconds / _CELL["num_rounds"] for seconds in cell_s],
            client_updates=sum(len(r.participants) for h in histories for r in h.rounds),
            ops_attempted=2 * len(specs) + sizes["reads"] + len(jobs) + sizes["identical"],
            ops_failed=failed_cells + failed_reads + len(failed_jobs) + failed_identical,
            avg_accuracy=statistics.fmean(accuracies) if accuracies else float("nan"),
            digest=hashlib.sha256("".join(digests).encode("ascii")).hexdigest(),
            sim_delay=statistics.fmean(delays) if delays else float("nan"),
            failures=failures,
            extra=extra,
        )


def _get(conn: http.client.HTTPConnection, key: str) -> tuple[int, bytes]:
    conn.request("GET", f"/v1/results/{key}")
    response = conn.getresponse()
    return response.status, response.read()


def _run_threads(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


WORKLOADS = {
    "fig4_sync": Fig4Sync,
    "committee_adversarial": CommitteeAdversarial,
    "cohort_population": CohortPopulation,
    "sweep_serve": SweepServe,
}


def make_workload(name: str, seed: int, scale: str):
    return WORKLOADS[name](name, seed, scale)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced unit.
# ---------------------------------------------------------------------------

def layer_metrics(unit: Unit, tracer) -> dict[str, float]:
    """Every per-layer metric, from the tracer's spans and the unit's counts.

    ``_s`` is busy seconds summed over one set-up plus one unit, ``_n`` a
    count; a layer the workload bypasses reports 0.  ``self`` means the span
    minus its child spans.
    """
    totals = tracer.totals()

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return totals.get(name, {}).get("n", 0)

    extra = unit.extra
    uploads = extra.get("uploads", 0)
    # What the spans should account for: the externally timed rounds, or the
    # cold sweep (the later sweep_serve phases mostly run in the daemon).
    covered = {"a_cold_sweep"} if "phases" in extra else set(range(len(unit.op_s)))
    out = {
        "datasets.build_s": total("datasets.build"),
        "datasets.build_n": count("datasets.build"),
        "core.trainer_init_s": own("core.trainer_init"),
        "core.round_self_s": own("core.round"),
        "core.global_update_s": own("core.global_update"),
        "core.round_p90_ms": percentile(unit.op_s, 0.9) * 1000.0 if unit.op_s else 0.0,
        "fl.local_update_s": total("fl.local_update"),
        "fl.local_update_n": count("fl.local_update"),
        "fl.evaluate_s": total("fl.evaluate"),
        "fl.defense_s": total("fl.defense"),
        "fl.defense_rejected_n": extra.get("defense_rejected", 0),
        "fl.aggregate_s": total("fl.aggregate"),
        "fl.cohort_block_s": total("fl.cohort_block"),
        "fl.cohort_block_n": extra.get("cohort_blocks", 0),
        "fl.cohort_eval_s": total("fl.cohort_eval"),
        "fl.stream_fold_s": own("fl.round"),
        "fl.avg_accuracy": unit.avg_accuracy,
        "nn.forward_s": total("nn.forward"),
        "nn.backward_s": total("nn.backward"),
        "nn.optim_step_s": total("nn.optim_step"),
        "nn.cohort_forward_s": total("nn.cohort_forward"),
        "nn.cohort_backward_s": total("nn.cohort_backward"),
        "attacks.forge_s": total("attacks.designate") + total("attacks.forge"),
        "attacks.forged_n": count("attacks.forge"),
        "attacks.detection_rate": extra.get("detection_rate", 0.0),
        "sim.round_s": total("sim.round"),
        "sim.events_n": extra.get("sim_events", 0),
        "crypto.keygen_s": total("crypto.keygen"),
        "crypto.keygen_n": count("crypto.keygen"),
        "crypto.sign_s": total("crypto.sign"),
        "crypto.sign_n": count("crypto.sign"),
        "crypto.verify_s": total("crypto.verify"),
        "crypto.verify_n": count("crypto.verify"),
        "crypto.verify_per_upload": count("crypto.verify") / uploads if uploads else 0.0,
        "blockchain.upload_s": own("blockchain.upload"),
        "blockchain.exchange_s": total("blockchain.exchange"),
        "blockchain.mining_s": own("blockchain.mining"),
        "blockchain.pow_s": total("blockchain.pow"),
        "blockchain.pow_attempts_n": tracer.counters["blockchain.pow_attempts"],
        "blockchain.append_s": total("blockchain.append"),
        "blockchain.blocks_n": count("blockchain.append"),
        "incentive.contribution_s": total("incentive.contribution"),
        "incentive.clustering_s": total("incentive.clustering"),
        "incentive.fallback_n": extra.get("fallbacks", 0),
        "net.begin_round_s": total("net.begin_round"),
        "net.absorb_uploads_s": total("net.absorb_uploads"),
        "net.commit_block_s": total("net.commit_block"),
        "net.gossip_propagate_s": total("net.gossip_propagate"),
        "net.finish_round_s": total("net.finish_round"),
        "net.reorgs_n": extra.get("reorgs", 0),
        "net.lost_uploads_n": extra.get("lost_uploads", 0),
        "net.components_n": extra.get("components", 0),
        "runner.validate_s": total("runner.validate"),
        "runner.engine_self_s": own("runner.engine_run"),
        "runner.cache_hits_n": extra.get("cache_hits", 0),
        "runner.runs_computed_n": extra.get("runs_computed", 0),
        "runner.cells_per_s": extra.get("cells_per_s", 0.0),
        "systems.build_s": total("systems.build"),
        "store.key_s": total("store.key"),
        "store.put_s": total("store.put"),
        "store.put_n": count("store.put"),
        "store.put_bytes": tracer.counters["store.put_bytes"],
        "store.get_s": total("store.get"),
        "store.get_n": count("store.get"),
        "store.resume_cells_per_s": extra.get("resume_cells_per_s", 0.0),
        "serve.boot_s": extra.get("boot_s", 0.0),
        "serve.stored_reads_per_s": extra.get("stored_reads_per_s", 0.0),
        "serve.stored_read_p50_us": 0.0,
        "serve.stored_read_p99_us": 0.0,
        "serve.jobs_per_s": extra.get("jobs_per_s", 0.0),
        "serve.submit_ms": 0.0,
        "serve.polls_per_job": 0.0,
        "serve.first_progress_ms": 0.0,
        "serve.submit_to_done_p50_ms": extra.get("submit_to_done_p50_ms", 0.0),
        "serve.submit_to_done_p90_ms": extra.get("submit_to_done_p90_ms", 0.0),
        "serve.dedup_hits_n": extra.get("dedup_hits", 0),
        "serve.runs_computed_n": extra.get("daemon_runs_computed", 0),
        "process.wall_s": extra.get("process_wall_s", 0.0),
        "process.kernel_s": extra.get("process_kernel_s", 0.0),
        "process.minor_faults_n": extra.get("process_minor_faults", 0),
        "trace.wall_s": unit.wall_s,
        "trace.self_coverage": (
            tracer.clocked_self_s(covered) / unit.clocked_s if unit.clocked_s else 0.0
        ),
    }
    if "read_s" in extra:
        jobs = [r for r in extra["jobs"] if "submit_s" in r]
        progress = [
            tracer.first_progress[r["job_id"]] - r["t0"]
            for r in jobs
            if r.get("job_id") in tracer.first_progress
        ]
        polls = tracer.by_scope().get("d_jobs", {}).get("serve.status", {}).get("n", 0)
        out.update({
            "serve.stored_read_p50_us": statistics.median(extra["read_s"]) * 1e6,
            "serve.stored_read_p99_us": percentile(extra["read_s"], 0.99) * 1e6,
            "serve.submit_ms": statistics.median(r["submit_s"] for r in jobs) * 1000.0,
            "serve.polls_per_job": polls / len(jobs),
            "serve.first_progress_ms": statistics.median(progress) * 1000.0 if progress else 0.0,
        })
    return out
