"""Tests for the runner subsystem: backends, scenarios, engine.

The central claims under test:

* **backend parity** — the serial and cohort backends (the latter across
  two processes) produce bit-identical training histories for the same seed;
* **scenario layer** — JSON/TOML documents expand to validated specs, matrix
  grids multiply correctly, and malformed inputs fail with `ScenarioError`
  naming the problem;
* **engine equivalence** — `api.run()` (the path every benchmark drives
  through) reproduces a hand-driven `FairBFLTrainer(...).run()` history
  exactly;
* **build contract** — the engine steps only a `TrainerRun` over a `Trainer`
  and refuses anything else before round 0.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import api
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.fl import cohort as cohort_module
from repro.fl.aggregation import AggregationError, simple_average, stack_updates
from repro.fl.client import ClientUpdate
from repro.fl.cohort import EXECUTOR_BACKENDS, CohortTrainer
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.selection import ContributionBasedSelector
from repro.fl.server import CentralServer
from repro.fl.trainer import Trainer
from repro.incentive.strategies import DiscardStrategy
from repro.runner.engine import ExperimentEngine, RunCancelled
from repro.runner.scenario import (
    ScenarioError,
    ScenarioMatrix,
    ScenarioSpec,
    load_scenario_file,
    scenarios_from_mapping,
)
from repro.store.runstore import RunStore
from repro.systems.registry import TrainerRun, get_system

from paper_spec import paper_spec
from toy_trainer import ToyTrainer


@pytest.fixture(scope="module")
def iid_federated():
    """Six equal-shape shards: the cohort backend trains them as one chunk."""
    return build_federated_dataset(
        num_clients=6, num_samples=480, scheme="iid", seed=7, noise_std=0.3
    )


def _fingerprint(history):
    return [
        (r.round_index, r.accuracy, r.train_loss, r.delay, tuple(r.participants), tuple(r.attackers))
        for r in history.rounds
    ]


class TestExecutorSettings:
    @staticmethod
    def _message(build) -> str:
        with pytest.raises(ValueError) as info:
            build()
        return str(info.value)

    def test_rejects_unknown_backend(self):
        spec = self._message(lambda: ScenarioSpec(backend="fibers").validate())
        assert spec == "backend must be one of serial, cohort, got 'fibers'"

    @pytest.mark.parametrize("removed", ["thread", "process"])
    def test_rejects_removed_backends(self, removed):
        # The pool backends are gone, not aliased: the spec refuses them and
        # names the two that remain.
        spec = self._message(lambda: ScenarioSpec(backend=removed, max_workers=2).validate())
        assert spec == f"backend must be one of serial, cohort, got {removed!r}"

    def test_rejects_bad_worker_count(self):
        # The engine and the spec name the one field a user sets.
        direct = self._message(lambda: CohortTrainer(max_workers=0))
        assert direct == "max_workers must be a positive finite number, got 0"
        assert self._message(lambda: ScenarioSpec(max_workers=0).validate()) == direct

    def test_worker_count(self):
        assert CohortTrainer(max_workers=3).max_workers == 3
        assert CohortTrainer(max_workers=None).max_workers >= 1
        with pytest.raises(ValueError):
            CohortTrainer(max_workers=-1)

    def test_default_worker_count_honours_cpu_affinity(self, monkeypatch):
        """A process pinned to one CPU of 64 (taskset, a cpuset) gets one worker."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one BLAS thread: W = usable CPUs
        assert CohortTrainer(max_workers=None).max_workers == 1
        assert CohortTrainer(max_workers=4).max_workers == 4  # an explicit count is taken as given
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity masks
        assert CohortTrainer(max_workers=None).max_workers == 64

    def test_cohort_processes_default_to_the_cpus_blas_leaves(self, monkeypatch, iid_federated):
        """Each cohort process runs BLAS, so by default W x BLAS threads <= CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)

        def processes(max_workers=None):
            spec = paper_spec(system="fedavg", backend="cohort", max_workers=max_workers)
            with FedAvgTrainer(iid_federated, spec) as trainer:
                return trainer.cohort.max_workers

        assert processes() == 1  # unpinned BLAS runs one thread per CPU already
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert processes() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # takes precedence over OMP
        assert processes() == 4
        assert processes(3) == 3  # an explicit count is taken as given

    def test_context_manager_closes_pool(self, iid_federated, monkeypatch):
        # One-client parts make every chunk multi-part, so the helpers fork.
        monkeypatch.setattr(cohort_module, "GATHER_ROWS", 1)
        spec = ScenarioSpec(
            num_rounds=1,
            participation=0.5,
            epochs=1,
            batch_size=10,
            learning_rate=0.05,
            model_name="logreg",
            backend="cohort",
            max_workers=2,
            seed=7,
        ).validate()
        with FairBFLTrainer(iid_federated, spec) as trainer:
            trainer.run()
            helpers = trainer.cohort._helpers
            assert helpers is not None and all(p.is_alive() for p in helpers.procs)
        assert trainer.cohort._helpers is None
        assert not any(p.is_alive() for p in helpers.procs)
        assert not [p for p in multiprocessing.active_children() if p.name == "repro-cohort-helper"]


class TestBackendParity:
    """Serial and two-process cohort histories are bit-identical."""

    @pytest.fixture(scope="class")
    def parity_histories(self, iid_federated):
        histories = {}
        finals = {}
        # One-client parts: every chunk is sharded, so the helper process's
        # rows are among those compared against serial.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cohort_module, "GATHER_ROWS", 1)
            for backend in EXECUTOR_BACKENDS:
                spec = ScenarioSpec(
                    num_rounds=2,
                    participation=0.5,
                    epochs=2,
                    batch_size=10,
                    learning_rate=0.05,
                    model_name="logreg",
                    attacks=True,
                    backend=backend,
                    max_workers=2,
                    seed=7,
                ).validate()
                with FairBFLTrainer(iid_federated, spec) as trainer:
                    histories[backend] = trainer.run()
                    finals[backend] = trainer.current_global_parameters()
                    if backend == "cohort":  # the helper did train rows into the buffers
                        assert trainer.cohort.shared_bytes > 0
        return histories, finals

    def test_round_records_identical(self, parity_histories):
        histories, _ = parity_histories
        assert _fingerprint(histories["cohort"]) == _fingerprint(histories["serial"])

    def test_final_parameters_bitwise_identical(self, parity_histories):
        _, finals = parity_histories
        assert finals["serial"].tobytes() == finals["cohort"].tobytes()

    def test_fedavg_backend_parity(self, tiny_spec):
        engine = ExperimentEngine()
        serial = api.run(tiny_spec, engine=engine, system="fedavg")
        cohort = api.run(tiny_spec, engine=engine, system="fedavg", backend="cohort", max_workers=2)
        assert _fingerprint(serial) == _fingerprint(cohort)


class TestScenarioSpec:
    def test_defaults_validate(self):
        spec = ScenarioSpec()
        assert spec.validate() is spec

    def test_unknown_field_is_named(self):
        with pytest.raises(ScenarioError, match="learning_rte"):
            ScenarioSpec.from_mapping({"learning_rte": 0.1})

    def test_type_coercion_and_rejection(self):
        spec = ScenarioSpec.from_mapping({"num_clients": 8, "learning_rate": 0.1, "hidden_sizes": [32, 16]})
        assert spec.num_clients == 8 and spec.hidden_sizes == (32, 16)
        with pytest.raises(ScenarioError, match="num_clients"):
            ScenarioSpec.from_mapping({"num_clients": "many"})
        with pytest.raises(ScenarioError, match="attacks"):
            ScenarioSpec.from_mapping({"attacks": "yes"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"system": "fedsgd"}, "unknown system"),
            # (ids kept from before the uniform "<field> must be one of" wording,
            # so the test names stay stable across the change)
            pytest.param({"scheme": "zipf"}, "scheme", id="overrides1-partition scheme"),
            pytest.param({"backend": "gpu"}, "backend", id="overrides2-unknown backend"),
            ({"num_clients": 0}, "num_clients"),
            ({"participation": 1.5}, "participation"),
            ({"strategy": "purge"}, "strategy"),
            ({"mode": "half"}, "mode"),
            ({"max_workers": 0}, "max_workers"),
            ({"low_quality_fraction": 2.0}, "low_quality_fraction"),
            # One integrality rule for every integer-typed field shape
            # (`int`, `int | None`, `tuple[int, ...]`): no silent truncation,
            # no bools or numeric strings standing in for integers.
            ({"num_clients": float("inf")}, "num_clients"),
            ({"max_workers": 2.7}, "max_workers"),
            ({"hidden_sizes": [64.9]}, "hidden_sizes"),
            ({"hidden_sizes": [True]}, "hidden_sizes"),
            ({"hidden_sizes": ["64"]}, "hidden_sizes"),
        ],
    )
    def test_invalid_values_raise_scenario_error(self, overrides, match):
        with pytest.raises(ScenarioError, match=match):
            ScenarioSpec.from_mapping(overrides)

    @pytest.mark.parametrize("system", ["fairbfl", "fedavg", "blockchain"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"participation": 0.0},
            {"participation": 7.0},
            {"model_name": "resnet"},
            {"clustering": "optics"},
            {"strategy": "purge"},
            {"mode": "half"},
            {"hidden_sizes": [0]},
            {"num_rounds": 0},
            {"miners": 0},
            {"epochs": 0},
            {"batch_size": 0},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_documented_rules_hold_for_every_system(self, system, overrides):
        """docs/scenarios.md promises these for every system, not only where a
        config happens to consume the field (a late failure inside a worker)."""
        (name,) = overrides
        with pytest.raises(ScenarioError, match=name):
            ScenarioSpec.from_mapping({"system": system, **overrides})

    def test_scenario_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)

    def test_discard_system_forces_strategy(self, iid_federated):
        spec = ScenarioSpec(system="fairbfl-discard").validate()
        built = get_system("fairbfl-discard").build(spec, iid_federated).trainer
        # A trainer built directly on the same spec runs the same strategy.
        direct = FairBFLTrainer(iid_federated, spec)
        for trainer in (built, direct):
            assert isinstance(trainer.strategy, DiscardStrategy)
            assert isinstance(trainer.selector, ContributionBasedSelector)
            # The trainer holds the spec the caller wrote (and the engine hashed).
            assert trainer.spec is spec
        assert spec.strategy == "keep"

    def test_round_trip_mapping(self):
        spec = ScenarioSpec(system="fedprox", proximal_mu=0.2, hidden_sizes=(8,))
        clone = ScenarioSpec.from_mapping(spec.to_mapping())
        assert clone == spec


class TestScenarioMatrix:
    def test_cartesian_expansion(self):
        base = ScenarioSpec(name="grid", num_clients=6, num_samples=300, num_rounds=1)
        specs = ScenarioMatrix(base, {"strategy": ["keep", "discard"], "learning_rate": [0.01, 0.1]}).expand()
        assert len(specs) == 4
        names = [s.name for s in specs]
        assert names[0] == "grid[strategy=keep,learning_rate=0.01]"
        assert {(s.strategy, s.learning_rate) for s in specs} == {
            ("keep", 0.01), ("keep", 0.1), ("discard", 0.01), ("discard", 0.1),
        }

    def test_unknown_matrix_field(self):
        with pytest.raises(ScenarioError, match="unknown matrix field"):
            ScenarioMatrix(ScenarioSpec(), {"learning_rte": [0.1]}).expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty list"):
            ScenarioMatrix(ScenarioSpec(), {"learning_rate": []}).expand()

    def test_invalid_grid_point_rejected(self):
        with pytest.raises(ScenarioError, match="participation"):
            ScenarioMatrix(ScenarioSpec(), {"participation": [0.5, 2.0]}).expand()


class TestScenarioDocuments:
    def test_single_mapping(self):
        specs = scenarios_from_mapping({"system": "fedavg", "num_rounds": 3}, default_name="solo")
        assert len(specs) == 1 and specs[0].name == "solo" and specs[0].system == "fedavg"

    def test_base_plus_scenarios(self):
        specs = scenarios_from_mapping(
            {
                "base": {"num_clients": 6, "num_rounds": 1},
                "scenarios": [{"name": "a", "system": "fairbfl"}, {"system": "fedavg"}],
            }
        )
        assert [s.name for s in specs] == ["a", "scenario-1"]
        assert all(s.num_clients == 6 for s in specs)

    def test_matrix_document(self):
        specs = scenarios_from_mapping(
            {"name": "m", "base": {"num_rounds": 1}, "matrix": {"miners": [2, 4]}}
        )
        assert [s.miners for s in specs] == [2, 4]

    def test_scenarios_and_matrix_conflict(self):
        with pytest.raises(ScenarioError, match="both"):
            scenarios_from_mapping({"scenarios": [{}], "matrix": {}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="mapping"):
            scenarios_from_mapping([1, 2, 3])

    @pytest.mark.parametrize("base", [[1], "x", 3])
    @pytest.mark.parametrize("shape", [{"matrix": {"seed": [0]}}, {"scenarios": [{}]}])
    def test_non_mapping_base_rejected(self, shape, base):
        with pytest.raises(ScenarioError, match="'base' must be a mapping"):
            scenarios_from_mapping({"base": base, **shape})

    def test_load_json_and_toml(self, tmp_path):
        jpath = tmp_path / "one.json"
        jpath.write_text(json.dumps({"system": "blockchain", "num_rounds": 2}))
        (tmp_path / "two.toml").write_text(
            'name = "t"\n[base]\nnum_rounds = 1\n[matrix]\nstrategy = ["keep", "discard"]\n'
        )
        jspecs = load_scenario_file(jpath)
        assert jspecs[0].system == "blockchain" and jspecs[0].name == "one"
        tspecs = load_scenario_file(tmp_path / "two.toml")
        assert [s.strategy for s in tspecs] == ["keep", "discard"]

    def test_load_rejects_missing_bad_suffix_and_bad_syntax(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario_file(tmp_path / "nope.json")
        bad = tmp_path / "spec.yaml"
        bad.write_text("system: fairbfl")
        with pytest.raises(ScenarioError, match="unsupported scenario file type"):
            load_scenario_file(bad)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario_file(broken)


class TestExperimentEngine:
    def test_dataset_memoised_across_specs(self):
        engine = ExperimentEngine()
        a = ScenarioSpec(num_clients=6, num_samples=300)
        b = a.with_overrides(learning_rate=0.2, strategy="discard")
        assert engine.dataset_for(a) is engine.dataset_for(b)
        c = a.with_overrides(num_clients=5)
        assert engine.dataset_for(c) is not engine.dataset_for(a)

    def test_blockchain_needs_no_dataset(self):
        engine = ExperimentEngine()
        hist = engine.run(ScenarioSpec(system="blockchain", num_clients=8, num_rounds=2))
        assert len(hist) == 2
        assert engine._dataset_cache == {}

    def test_history_carries_scenario_name(self, tiny_spec):
        hist = api.run(tiny_spec, name="custom-label", num_rounds=1)
        assert hist.label == "custom-label"

    def test_suite_run_matches_legacy_wiring(self, tiny_spec):
        """The engine path reproduces a hand-driven trainer exactly."""
        engine = ExperimentEngine()
        legacy_trainer = FairBFLTrainer(engine.dataset_for(tiny_spec), tiny_spec)
        legacy = legacy_trainer.run()
        legacy_trainer.close()
        engine_hist = api.run(tiny_spec, engine=engine)
        assert _fingerprint(engine_hist) == _fingerprint(legacy)

    def test_sweep_table_shape(self, tiny_spec):
        engine = ExperimentEngine()
        specs = [
            tiny_spec.with_overrides(name="a", num_rounds=1),
            tiny_spec.with_overrides(system="blockchain", name="b", num_rounds=1),
        ]
        table, results = engine.sweep_table(specs, title="t")
        assert [row[0] for row in table.rows] == ["a", "b"]
        assert len(results) == 2 and results[0].summary["rounds"] == 1

    def test_counters_are_exact_under_concurrent_tally(self):
        """The serve worker pool shares one engine across threads; its
        counters must not lose increments (a bare ``+=`` would)."""
        import sys
        import threading

        engine = ExperimentEngine()
        threads_n, iterations = 8, 2000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force aggressive interleaving
        try:
            def hammer() -> None:
                for _ in range(iterations):
                    engine.tally(runs=1, rounds=2, hits=1)

            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert engine.runs_computed == threads_n * iterations
        assert engine.round_evaluations == 2 * threads_n * iterations
        assert engine.cache_hits == threads_n * iterations

    def test_run_streaming_matches_run_and_reports_progress(self):
        spec = ScenarioSpec(system="blockchain", num_clients=8, num_rounds=3)
        seen: list[tuple[int, int]] = []
        streamed = ExperimentEngine().run_streaming(
            spec, progress=lambda done, total: seen.append((done, total))
        )
        plain = ExperimentEngine().run(spec)
        assert _fingerprint(streamed.history) == _fingerprint(plain)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_streaming_cancellation_raises_and_counts_partial_rounds(self):
        engine = ExperimentEngine()
        spec = ScenarioSpec(system="blockchain", num_clients=8, num_rounds=5)
        done_rounds: list[int] = []
        with pytest.raises(RunCancelled):
            engine.run_streaming(
                spec,
                progress=lambda done, total: done_rounds.append(done),
                should_stop=lambda: bool(done_rounds and done_rounds[-1] >= 2),
            )
        assert engine.runs_computed == 0  # a cancelled run is not a computed run
        assert engine.round_evaluations == 2  # ...but its partial rounds are costed
        assert done_rounds == [1, 2]


def _stored_record(store: RunStore, spec: ScenarioSpec) -> str | None:
    """The record stored for ``spec`` minus its wall-clock stamp (None = absent)."""
    path = store.path_for(store.key_for(spec))
    if not path.exists():
        return None
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["created_at"]
    return json.dumps(record, sort_keys=True)


#: The three public engine verbs, called so that each asks for the same thing.
ENGINE_VERBS = {
    "run_result": lambda engine, spec, **watch: engine.run_result(spec),
    "run_partial": lambda engine, spec, **watch: engine.run_partial(spec, checkpoint=False),
    "run_streaming": lambda engine, spec, **watch: engine.run_streaming(spec, **watch),
}


class TestEngineVerbsAreOneBody:
    @pytest.mark.parametrize(
        "system", ["fairbfl", "fairbfl-discard", "fedavg", "fedprox", "blockchain"]
    )
    def test_same_run_same_record_same_counters(self, system, tmp_path, monkeypatch):
        spec = ScenarioSpec(
            system=system, name="verbs", num_clients=6, num_samples=240, num_rounds=5, seed=5
        )
        outcomes = {}
        for verb, call in ENGINE_VERBS.items():
            store = RunStore(tmp_path / verb)
            engine = ExperimentEngine(store=store)
            seen: list[tuple[int, int]] = []
            watch = dict(progress=lambda done, total: seen.append((done, total)))
            history = call(engine, spec, **watch).history
            counters = (engine.runs_computed, engine.round_evaluations, engine.cache_hits)
            assert counters == (1, 5, 0)
            outcomes[verb] = (_fingerprint(history), _stored_record(store, spec))
            # A second call is a pure hit, reported as one finished step.
            del seen[:]
            again = call(engine, spec, **watch).history
            assert _fingerprint(again) == _fingerprint(history)
            counters = (engine.runs_computed, engine.round_evaluations, engine.cache_hits)
            assert counters == (1, 5, 1)
            assert seen == ([(5, 5)] if verb == "run_streaming" else [])
        assert outcomes["run_partial"] == outcomes["run_result"]
        assert outcomes["run_streaming"] == outcomes["run_result"]

        # Cancelled at round 2 of 5: nothing stored, the rounds costed, the
        # trainer closed — and the next run computes all five.
        closed: list[bool] = []
        registered = get_system(system)
        build = registered.build

        def spying_build(spec, dataset):
            run = build(spec, dataset)
            close = getattr(run.trainer, "close", lambda: None)
            run.trainer.close = lambda: (closed.append(True), close())
            return run

        monkeypatch.setattr(registered, "build", spying_build)
        store = RunStore(tmp_path / "cancelled")
        engine = ExperimentEngine(store=store)
        done_rounds: list[int] = []
        with pytest.raises(RunCancelled):
            engine.run_streaming(
                spec,
                progress=lambda done, total: done_rounds.append(done),
                should_stop=lambda: bool(done_rounds and done_rounds[-1] >= 2),
            )
        assert (engine.runs_computed, engine.round_evaluations) == (0, 2)
        assert closed == [True] and _stored_record(store, spec) is None
        engine.run_result(spec)
        assert (engine.runs_computed, engine.round_evaluations, engine.cache_hits) == (1, 7, 0)
        assert _stored_record(store, spec) == outcomes["run_result"][1]


class TestBuildContract:
    """``System.build`` returns a ``TrainerRun`` over a ``Trainer``, or nothing runs."""

    @pytest.mark.parametrize("verb", ENGINE_VERBS)
    @pytest.mark.parametrize(
        "build, got",
        [
            (ToyTrainer, "ToyTrainer"),  # the bare trainer, unwrapped
            (lambda spec: ToyTrainer(spec).history, "TrainingHistory"),  # no .trainer
            (lambda spec: TrainerRun(ToyTrainer(spec).history), "TrainerRun(TrainingHistory)"),
        ],
        ids=["bare-trainer", "no-trainer", "trainer-run-over-a-non-trainer"],
    )
    def test_refused_before_round_0(
        self, register_toy_system, monkeypatch, tmp_path, build, got, verb
    ):
        register_toy_system("toy-contract", build)
        rounds: list[int] = []
        monkeypatch.setattr(ToyTrainer, "run_round", lambda self, r: rounds.append(r))
        store = RunStore(tmp_path)
        engine = ExperimentEngine(store=store)
        spec = ScenarioSpec(system="toy-contract", num_rounds=3)
        seen: list[int] = []
        with pytest.raises(ScenarioError) as info:
            ENGINE_VERBS[verb](engine, spec, progress=lambda done, total: seen.append(done))
        assert str(info.value) == (
            "system 'toy-contract': build() must return a TrainerRun over a "
            f"repro.fl.trainer.Trainer, got {got}"
        )
        assert rounds == [] and seen == []
        assert (engine.runs_computed, engine.round_evaluations, engine.cache_hits) == (0, 0, 0)
        assert store.keys() == ()

    def test_a_trainer_run_is_stepped_and_closed(self, register_toy_system, monkeypatch):
        register_toy_system("toy-contract", lambda spec: TrainerRun(ToyTrainer(spec)))
        closed: list[bool] = []
        monkeypatch.setattr(ToyTrainer, "close", lambda self: closed.append(True))
        result = ExperimentEngine().run_result(ScenarioSpec(system="toy-contract", num_rounds=3))
        assert result.system == "toy-contract"
        assert [r.round_index for r in result.history.rounds] == [0, 1, 2]
        assert closed == [True]


class TestTrainerContract:
    """What every built-in system's trainer inherits from the one ``Trainer``."""

    @pytest.mark.parametrize(
        "system", ["fairbfl", "fairbfl-discard", "fedavg", "fedprox", "blockchain"]
    )
    def test_lifecycle_emission_and_population(self, system):
        spec = ScenarioSpec(
            system=system, name="contract", num_clients=6, num_samples=240, num_rounds=3, seed=5
        ).validate()
        registered = get_system(system)
        needs_dataset = registered.capabilities.needs_dataset
        dataset = ExperimentEngine().dataset_for(spec) if needs_dataset else None
        trainer = registered.build(spec, dataset).trainer
        assert isinstance(trainer, Trainer)
        with trainer as entered:
            assert entered is trainer
            for r in range(2):
                before = trainer.clock.now
                record = trainer.run_round(r)
                assert record is trainer.history.rounds[-1] and record.round_index == r
                assert trainer.clock.now == before + record.delay == record.elapsed_time
            assert trainer.rounds_completed() == 2
            if needs_dataset:
                assert isinstance(trainer.clients, dict)
                assert list(trainer.clients) == [shard.client_id for shard in dataset.clients]
                assert all(cid == c.client_id for cid, c in trainer.clients.items())
            else:
                assert trainer.clients is None
        trainer.close()  # the context manager closed it; closing twice is harmless


@pytest.mark.aggregation
class TestVectorisedAggregationPath:
    def _updates(self, dim=3):
        return [
            ClientUpdate(client_id=i, parameters=np.full(dim, float(i)), train_loss=0.0)
            for i in range(3)
        ]

    def test_server_empty_updates_raise_consistent_error(self, rng):
        server = CentralServer(lambda: _tiny_model(rng))
        with pytest.raises(AggregationError):
            server.aggregate([])
        with pytest.raises(AggregationError):
            simple_average(np.zeros((0, 3)))
        assert issubclass(AggregationError, ValueError)

    def test_server_routes_through_stacked_path(self, rng):
        server = CentralServer(lambda: _tiny_model(rng))
        dim = server.global_parameters.size
        new_global = server.aggregate(self._updates(dim=dim))
        expected = np.stack([np.full(dim, float(i)) for i in range(3)]).mean(axis=0)
        np.testing.assert_allclose(new_global, expected)
        np.testing.assert_allclose(server.global_parameters, expected)

    def test_simple_average_of_stacked_updates(self):
        updates = self._updates()
        np.testing.assert_allclose(simple_average(stack_updates(updates)), np.full(3, 1.0))
        with pytest.raises(AggregationError, match="empty"):
            stack_updates([])


def _tiny_model(rng):
    from repro.nn.models import build_model

    return build_model("logreg", 3, 2, rng)
