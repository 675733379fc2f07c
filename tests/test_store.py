"""Tests for the content-addressed run store (`repro.store`).

The central claims under test:

* **key stability** — the same scenario hashes to the same key across
  construction styles, mapping key orders, and *processes*; any field change
  (seed included) or a capability change of the registered system produces a
  new key; the presentation-only ``name`` deliberately does not;
* **record fidelity** — a stored run reloads with every round field
  (extras included) exactly equal to the freshly-computed serialised form;
* **resume semantics** — an interrupted sweep re-run against the store
  computes only the missing scenarios (counted via the engine's
  ``runs_computed``/``cache_hits``) and yields bit-identical histories to an
  uncached sweep;
* **durability** — concurrent writers of one record never collide and a
  concurrent reader never sees a torn record; a failed write leaves no temp
  file, and ``gc`` reclaims what a killed writer leaves (``-m store``);
* **CLI surface** — ``sweep`` is write-through by default, ``--resume``
  reuses records, ``--no-cache`` opts out, and ``repro report`` renders the
  store as text/CSV/Markdown;
* **shared serialiser** — ``benchmarks/conftest.py``'s ``emit_json`` writes
  versioned records carrying the spec content keys.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.cli import main
from repro.fl.history import RoundRecord, TrainingHistory
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioMatrix, ScenarioSpec
from repro.store.keys import spec_key
from repro.store.records import (
    STORE_SCHEMA_VERSION,
    history_from_payload,
    history_to_payload,
    json_sanitize,
    write_json_record,
)
from repro.store.report import to_markdown
from repro.store.runstore import RunStore, RunStoreError
from repro.systems import (
    System,
    SystemCapabilities,
    TrainerRun,
    register_system,
    unregister_system,
)
from repro.systems.registry import capability_fingerprint

from toy_trainer import ToyTrainer

REPO_ROOT = Path(__file__).resolve().parents[1]

BLOCKCHAIN_FIELDS = dict(system="blockchain", num_clients=5, num_rounds=2)


def _blockchain_spec(**overrides) -> ScenarioSpec:
    return ScenarioSpec(**{**BLOCKCHAIN_FIELDS, "name": "store-test", **overrides})


class StoreToySystem(System):
    name = "toy-store"
    description = "fixed-history system for store tests"
    capabilities = SystemCapabilities(needs_dataset=False)

    def build(self, spec, dataset):
        return TrainerRun(ToyTrainer(spec))


@pytest.fixture()
def toy_store_system():
    system = register_system(StoreToySystem())
    try:
        yield system
    finally:
        unregister_system("toy-store")


class TestSpecKey:
    def test_key_is_sha256_hex(self):
        key = spec_key(_blockchain_spec())
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_same_spec_same_key_across_construction_styles(self):
        direct = _blockchain_spec()
        mapping = direct.to_mapping()
        shuffled = dict(sorted(mapping.items(), reverse=True))
        assert spec_key(direct) == spec_key(ScenarioSpec.from_mapping(shuffled))

    def test_numeric_coercion_does_not_change_key(self):
        # TOML/JSON loaders coerce 1 -> 1.0 for float fields; direct
        # construction must hash identically.
        a = _blockchain_spec(participation=1)
        b = _blockchain_spec(participation=1.0)
        assert spec_key(a) == spec_key(b)

    def test_name_is_presentation_only(self):
        assert spec_key(_blockchain_spec(name="a")) == spec_key(_blockchain_spec(name="b"))

    def test_execution_fields_do_not_change_key(self):
        # Backends produce bit-identical histories (the repo's determinism
        # invariant), so a sweep run with --backend cohort must resume
        # cleanly under --backend serial.
        base = spec_key(_blockchain_spec())
        assert spec_key(_blockchain_spec(max_workers=4)) == base
        # The vanilla chain has no cohort capability, so the backend is
        # swapped on a system that has one.
        fedavg = _blockchain_spec(system="fedavg")
        cohort = fedavg.with_overrides(backend="cohort", max_workers=4)
        assert spec_key(cohort) == spec_key(fedavg)

    @pytest.mark.parametrize(
        "override",
        [
            dict(seed=1),
            dict(num_clients=6),
            dict(num_rounds=3),
            dict(miners=3),
            dict(system="fairbfl"),
            dict(learning_rate=0.01),
        ],
    )
    def test_any_semantic_field_change_changes_key(self, override):
        assert spec_key(_blockchain_spec(**override)) != spec_key(_blockchain_spec())

    def test_key_stable_across_processes(self):
        spec = _blockchain_spec()
        script = (
            "from repro.runner.scenario import ScenarioSpec\n"
            "from repro.store.keys import spec_key\n"
            f"print(spec_key(ScenarioSpec.from_mapping({spec.to_mapping()!r})))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == spec_key(spec)

    def test_capability_change_changes_key(self, toy_store_system):
        spec = ScenarioSpec(system="toy-store", num_rounds=2)
        before = spec_key(spec)
        replacement = StoreToySystem()
        replacement.capabilities = SystemCapabilities(needs_dataset=False, defenses=True)
        register_system(replacement, replace=True)
        assert spec_key(spec) != before

    def test_fingerprint_covers_name_class_and_capabilities(self, toy_store_system):
        assert capability_fingerprint("toy-store") == capability_fingerprint(toy_store_system)
        assert capability_fingerprint("fairbfl") != capability_fingerprint("fedavg")
        # fairbfl and fairbfl-discard share capabilities but differ in name/class.
        assert capability_fingerprint("fairbfl") != capability_fingerprint("fairbfl-discard")


class TestRecords:
    def test_json_sanitize_flattens_rich_values(self):
        @dataclasses.dataclass
        class Part:
            x: float
            label: str

        value = {
            "np_int": np.int64(3),
            "np_float": np.float64(0.5),
            "np_bool": np.bool_(True),
            "array": np.arange(3, dtype=np.float64),
            "dataclass": Part(1.5, "p"),
            "tuple": (1, 2),
            "rewards": {3: 0.25},
            "opaque": object(),
        }
        out = json_sanitize(value)
        assert out["np_int"] == 3 and isinstance(out["np_int"], int)
        assert out["np_float"] == 0.5 and isinstance(out["np_float"], float)
        assert out["np_bool"] is True
        assert out["array"] == [0.0, 1.0, 2.0]
        assert out["dataclass"] == {"x": 1.5, "label": "p"}
        assert out["tuple"] == [1, 2]
        assert out["rewards"] == {"3": 0.25}
        assert isinstance(out["opaque"], str)
        json.dumps(out)  # fully serialisable

    def test_write_json_record_stamps_schema(self, tmp_path):
        path = write_json_record(tmp_path / "r.json", {"payload": 1}, kind="run")
        record = json.loads(path.read_text())
        assert record["schema_version"] == STORE_SCHEMA_VERSION
        assert record["record_kind"] == "run"
        assert record["payload"] == 1
        assert not list(tmp_path.glob("*.tmp"))
        # The umask's permissions, like any other file the writer creates.
        reference = tmp_path / "plain.txt"
        reference.write_text("")
        assert path.stat().st_mode & 0o777 == reference.stat().st_mode & 0o777

    def test_history_payload_round_trip_keeps_extras(self):
        history = TrainingHistory(label="h")
        history.append(
            RoundRecord(
                round_index=0,
                delay=1.25,
                accuracy=0.75,
                train_loss=0.5,
                elapsed_time=1.25,
                participants=[1, 2],
                discarded=[2],
                attackers=[1],
                rewards={1: 0.5, 2: 0.25},
                extras={"defense": "krum", "sim_events": 7},
            )
        )
        reloaded = history_from_payload(history_to_payload(history))
        assert history_to_payload(reloaded) == history_to_payload(history)
        assert reloaded.rounds[0].rewards == {1: 0.5, 2: 0.25}
        assert reloaded.rounds[0].extras["defense"] == "krum"


class TestRunStore:
    def test_put_get_round_trip_blockchain(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        computed = ExperimentEngine().run_result(spec)
        store.put(spec, computed)
        cached = store.get(spec)
        assert cached is not None
        assert cached.system == computed.system
        assert history_to_payload(cached.history) == history_to_payload(computed.history)

    def test_put_get_round_trip_fairbfl_extras(self, tmp_path):
        # FAIR-BFL rounds carry rich extras (delay breakdown dataclass, trace
        # digests); the stored form must round-trip to the same payload.
        store = RunStore(tmp_path)
        spec = ScenarioSpec(
            name="fair-tiny", system="fairbfl", num_clients=5, num_samples=250, num_rounds=2
        )
        computed = ExperimentEngine().run_result(spec)
        store.put(spec, computed)
        cached = store.get(spec)
        assert history_to_payload(cached.history) == history_to_payload(computed.history)
        assert cached.history.rounds[0].extras["event_trace_digest"] == (
            computed.history.rounds[0].extras["event_trace_digest"]
        )

    def test_get_relabels_history_with_requesting_name(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec(name="original")
        store.put(spec, ExperimentEngine().run_result(spec))
        cached = store.get(_blockchain_spec(name="renamed"))
        assert cached is not None and cached.history.label == "renamed"

    def test_contains_keys_and_load(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        assert not store.contains(spec)
        stored = store.put(spec, ExperimentEngine().run_result(spec))
        assert store.contains(spec)
        assert store.keys() == (stored.key,)
        assert store.load(stored.key).spec == spec
        with pytest.raises(RunStoreError, match="no stored run"):
            store.load("0" * 64)

    def test_query_filters_and_rejects_unknown_fields(self, tmp_path):
        store = RunStore(tmp_path)
        engine = ExperimentEngine(store=store)
        engine.run_result(_blockchain_spec(name="m2", miners=2))
        engine.run_result(_blockchain_spec(name="m3", miners=3))
        assert len(store.query(system="blockchain")) == 2
        assert [r.spec.miners for r in store.query(miners=3)] == [3]
        assert store.query(system="fairbfl") == []
        assert store.query(predicate=lambda r: r.spec.miners == 2)[0].spec.name == "m2"
        with pytest.raises(RunStoreError, match="unknown scenario field"):
            store.query(minerz=3)

    def test_gc_collects_corrupt_and_mismatched_records(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        stored = store.put(spec, ExperimentEngine().run_result(spec))
        # A record filed under a key its spec no longer hashes to (the
        # signature of a code-relevant change) and an unreadable record.
        stale = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        stale.parent.mkdir(parents=True)
        stale.write_text(stored.path.read_text())
        corrupt = tmp_path / "cd" / ("cd" + "1" * 62 + ".json")
        corrupt.parent.mkdir(parents=True)
        corrupt.write_text("{not json")
        removable = store.gc(dry_run=True)
        assert set(removable) == {stale.stem, corrupt.stem} and stored.path.exists()
        removed = store.gc()
        assert set(removed) == {stale.stem, corrupt.stem}
        assert not stale.exists() and not corrupt.exists() and stored.path.exists()
        assert store.gc() == ()

    @pytest.mark.store
    def test_gc_reclaims_orphan_npz_sidecars(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        stored = store.put(spec, ExperimentEngine().run_result(spec), checkpoint=b"blob")
        orphan = tmp_path / "ef" / ("ef" + "2" * 62 + ".npz")
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"not-an-npz")
        assert store.gc(dry_run=True) == (orphan.stem,)
        assert store.gc() == (orphan.stem,)
        assert not orphan.exists()
        assert stored.path.with_suffix(".npz").exists()  # paired sidecar survives

    @pytest.mark.store
    def test_gc_reclaims_temp_files_a_killed_writer_leaves(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        stored = store.put(spec, ExperimentEngine().run_result(spec), checkpoint=b"blob")
        leftovers = [
            stored.path.with_name(stored.path.name + ".k1ll3d.tmp"),
            stored.path.with_suffix(".npz.k1ll3d.tmp"),
        ]
        for leftover in leftovers:
            leftover.write_bytes(b"half a rec")
        assert store.gc(dry_run=True) == (stored.key, stored.key)
        assert store.gc() == (stored.key, stored.key)
        assert not any(p.exists() for p in leftovers)
        assert store.get(spec) is not None  # the record and its sidecar survive

    @pytest.mark.store
    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        result = ExperimentEngine().run_result(spec)

        def full_disk(handle, **arrays):
            handle.write(b"partial")
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez_compressed", full_disk)
        with pytest.raises(OSError, match="No space left"):
            store.put(spec, result, checkpoint=b"blob")
        assert list(tmp_path.glob("??/*")) == []

    @pytest.mark.store
    def test_concurrent_writes_of_one_record_never_collide(self, tmp_path):
        # `repro sweep` and `repro serve` sharing a store, two searches
        # sharing rungs, or process-isolation children: several writers put
        # one key while readers load it.
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        result = ExperimentEngine().run_result(spec)
        key = store.put(spec, result, checkpoint=b"blob").key
        writers_n, writes = 4, 150
        errors: list[BaseException] = []
        torn: list[str] = []
        reads = 0
        done = threading.Event()

        def write() -> None:
            try:
                for _ in range(writes):
                    store.put(spec, result, checkpoint=b"blob")
            except BaseException as exc:  # noqa: BLE001 - every failure is the finding
                errors.append(exc)

        def read() -> None:
            nonlocal reads
            while not done.is_set():
                try:
                    store.load(key)
                except RunStoreError as exc:
                    torn.append(str(exc))
                reads += 1

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force aggressive interleaving
        try:
            writers = [threading.Thread(target=write) for _ in range(writers_n)]
            reader = threading.Thread(target=read)
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join()
            done.set()
            reader.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert errors == []
        assert torn == [] and reads > 0
        assert store.get(spec) is not None
        assert sorted(p.name for p in tmp_path.glob("??/*")) == [f"{key}.json", f"{key}.npz"]

    def test_rewrite_without_arrays_drops_stale_sidecar(self, tmp_path):
        spec = _blockchain_spec()
        result = ExperimentEngine().run_result(spec)
        store = RunStore(tmp_path)
        stored = store.put(spec, result, checkpoint=b"blob")
        sidecar = stored.path.with_suffix(".npz")
        # The sidecar holds exactly what a reader resolves, nothing else.
        assert np.load(sidecar).files == ["checkpoint"]
        assert json.loads(stored.path.read_text())["arrays"] == sidecar.name
        store.put(spec, result)
        assert not sidecar.exists()
        assert "arrays" not in json.loads(stored.path.read_text())

    def test_gc_predicate_drops_valid_records(self, tmp_path):
        store = RunStore(tmp_path)
        engine = ExperimentEngine(store=store)
        engine.run_result(_blockchain_spec(name="keep", miners=2))
        engine.run_result(_blockchain_spec(name="drop", miners=3))
        removed = store.gc(predicate=lambda r: r.spec.miners == 3)
        assert len(removed) == 1
        assert [r.spec.miners for r in store.runs()] == [2]

    def test_index_sees_records_written_by_another_process(self, tmp_path):
        """A long-lived store sees what other processes wrote under its root.

        The serve daemon's process-isolation workers (and any concurrent
        sweep) write records through *separate* RunStore instances; a store
        that already answered queries must still answer ``contains``/
        ``query``/``keys`` for them without an explicit refresh.
        """
        store = RunStore(tmp_path)
        local = _blockchain_spec(name="local", miners=2)
        store.put(local, ExperimentEngine().run_result(local))
        other = _blockchain_spec(name="other", miners=3)
        assert not store.contains(other) and len(store.keys()) == 1

        script = (
            "from repro.runner.engine import ExperimentEngine\n"
            "from repro.runner.scenario import ScenarioSpec\n"
            "from repro.store.runstore import RunStore\n"
            f"spec = ScenarioSpec.from_mapping({other.to_mapping()!r})\n"
            f"RunStore({str(tmp_path)!r}).put(spec, ExperimentEngine().run_result(spec))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )

        assert store.contains(other)
        assert spec_key(other) in store.keys()
        assert [r.spec.miners for r in store.query(miners=3)] == [3]
        cached = store.get(other)
        assert cached is not None and cached.history.label == "other"

    def test_old_schema_records_miss_and_collect(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        stored = store.put(spec, ExperimentEngine().run_result(spec))
        record = json.loads(stored.path.read_text())
        record["schema_version"] = STORE_SCHEMA_VERSION + 1
        stored.path.write_text(json.dumps(record))
        assert store.get(spec) is None
        assert store.gc() == (stored.key,)

    @pytest.mark.parametrize("removed", ["thread", "process"])
    def test_records_naming_a_removed_backend_miss_and_are_recomputed(self, tmp_path, removed):
        # ``backend`` is outside the key, but a record re-validates its spec
        # on read: one written by a backend that no longer exists is a miss
        # (never an alias for another backend), and the engine overwrites it.
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        stored = store.put(spec, ExperimentEngine().run_result(spec))
        record = json.loads(stored.path.read_text())
        record["spec"]["backend"] = removed
        stored.path.write_text(json.dumps(record))

        assert store.get(spec) is None
        with pytest.raises(RunStoreError, match="unloadable spec: backend must be one of"):
            store.load(stored.key)

        engine = ExperimentEngine(store=store)
        engine.run_result(spec)
        assert engine.runs_computed == 1 and engine.cache_hits == 0
        assert store.load(stored.key).spec.backend == "serial"


class TestEngineResume:
    """The acceptance criterion: a killed sweep resumes computing only what is missing."""

    def _matrix(self) -> list[ScenarioSpec]:
        return ScenarioMatrix(
            _blockchain_spec(name="grid"), {"miners": [2, 3], "seed": [0, 1]}
        ).expand()

    @pytest.mark.store
    def test_interrupted_sweep_resumes_only_missing_cells(self, tmp_path):
        specs = self._matrix()
        assert len(specs) == 4

        # Reference: a plain uncached sweep.
        uncached = ExperimentEngine()
        reference = [uncached.run_result(spec) for spec in specs]
        assert uncached.runs_computed == 4

        # "Killed" sweep: only the first two cells completed before the kill.
        killed = ExperimentEngine(store=RunStore(tmp_path))
        for spec in specs[:2]:
            killed.run_result(spec)
        assert killed.runs_computed == 2

        # Resume: a fresh engine over the same store computes exactly the
        # two missing cells and loads the two finished ones.
        resumed = ExperimentEngine(store=RunStore(tmp_path))
        results = [resumed.run_result(spec) for spec in specs]
        assert resumed.runs_computed == 2
        assert resumed.cache_hits == 2

        # Bit-identical histories: the full serialised form (every round
        # field, extras included) matches the uncached reference cell by cell.
        for got, want in zip(results, reference):
            assert history_to_payload(got.history) == history_to_payload(want.history)

    def test_second_pass_is_fully_cached(self, tmp_path):
        specs = self._matrix()
        store = RunStore(tmp_path)
        first = ExperimentEngine(store=store)
        for spec in specs:
            first.run_result(spec)
        second = ExperimentEngine(store=store)
        for spec in specs:
            second.run_result(spec)
        assert second.runs_computed == 0 and second.cache_hits == 4

    def test_write_through_mode_recomputes_but_persists(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _blockchain_spec()
        ExperimentEngine(store=store).run_result(spec)
        engine = ExperimentEngine(store=store, reuse_cached=False)
        engine.run_result(spec)
        assert engine.runs_computed == 1 and engine.cache_hits == 0
        assert store.contains(spec)


class TestApiCache:
    def test_run_with_cache_path(self, tmp_path):
        first = api.run(_blockchain_spec(), cache=tmp_path)
        second = api.run(_blockchain_spec(), cache=tmp_path)
        assert history_to_payload(first) == history_to_payload(second)
        assert RunStore(tmp_path).keys()

    def test_sweep_with_cache_reuses_cells(self, tmp_path):
        doc = {
            "base": dict(BLOCKCHAIN_FIELDS),
            "matrix": {"miners": [2, 3]},
        }
        store = RunStore(tmp_path)
        api.sweep(doc, cache=store)
        engine = ExperimentEngine(store=store)
        table, _ = api.sweep(doc, engine=engine)
        assert engine.cache_hits == 2 and engine.runs_computed == 0
        assert len(table.rows) == 2

    def test_engine_and_cache_are_mutually_exclusive(self):
        with pytest.raises(api.ScenarioError, match="not both"):
            api.run(_blockchain_spec(), engine=ExperimentEngine(), cache="store")

    def test_bad_cache_value_is_rejected(self):
        with pytest.raises(api.ScenarioError, match="cache must be"):
            api.run(_blockchain_spec(), cache=42)

    def test_report_over_store(self, tmp_path):
        store = RunStore(tmp_path)
        ExperimentEngine(store=store).run_result(_blockchain_spec())
        table = api.report(store)
        assert table.column("system") == ["blockchain"]
        assert api.report(tmp_path, systems=["fairbfl"]).rows == []
        markdown = to_markdown(table)
        assert markdown.splitlines()[2].startswith("| scenario | system |")

    def test_markdown_escapes_pipes_in_cells(self, tmp_path):
        # Bench-style names ("matrix[sign_flip|krum]") must not split cells.
        store = RunStore(tmp_path)
        spec = _blockchain_spec(name="matrix[a|b]")
        ExperimentEngine(store=store).run_result(spec)
        row_line = to_markdown(api.report(store)).splitlines()[4]
        assert "matrix[a\\|b]" in row_line
        assert row_line.count(" | ") == 6  # 7 columns despite the pipe in the name


class TestCliStoreFlow:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps({"base": dict(BLOCKCHAIN_FIELDS), "matrix": {"miners": [2, 3]}})
        )
        return path

    def test_sweep_is_write_through_and_resumable(self, scenario_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["sweep", "--scenario", str(scenario_file), "--store", str(store_dir)]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert "0 loaded, 2 computed" in first_out and "--resume" in first_out
        keys = RunStore(store_dir).keys()
        assert len(keys) == 2

        # Simulate the kill: one cell's record vanishes; --resume recomputes
        # exactly that cell and reproduces the same table.
        removed = RunStore(store_dir).path_for(keys[0])
        removed.unlink()
        assert main(argv + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "1 loaded, 1 computed" in resumed_out
        assert removed.exists()
        table = lambda text: [l for l in text.splitlines() if l.startswith("grid[")]  # noqa: E731
        assert table(resumed_out) == table(first_out)

    def test_sweep_no_cache_touches_nothing(self, scenario_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            ["sweep", "--scenario", str(scenario_file), "--store", str(store_dir), "--no-cache"]
        )
        assert code == 0
        assert "run store" not in capsys.readouterr().out
        assert not store_dir.exists()

    def test_resume_and_no_cache_conflict(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--scenario", str(scenario_file), "--resume", "--no-cache"]
            )

    def test_report_renders_text_csv_markdown(self, scenario_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["sweep", "--scenario", str(scenario_file), "--store", str(store_dir)])
        capsys.readouterr()
        csv_path = tmp_path / "report.csv"
        md_path = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--store",
                str(store_dir),
                "--export",
                str(csv_path),
                "--markdown",
                str(md_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stored runs (2 records)" in out
        assert csv_path.read_text().splitlines()[0] == (
            "scenario,system,rounds,avg_delay_s,avg_accuracy,final_accuracy,key"
        )
        assert md_path.read_text().startswith("# Stored runs (2 records)")

    def test_report_empty_store_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "nowhere")])
        assert code == 1
        assert "no stored runs" in capsys.readouterr().err

    def test_report_system_filter(self, scenario_file, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["sweep", "--scenario", str(scenario_file), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(["report", "--store", str(store_dir), "--system", "fairbfl"]) == 1
        assert "fairbfl" in capsys.readouterr().err


class TestEmitJsonSharedSerialiser:
    def test_bench_records_carry_schema_and_spec_keys(self, tmp_path, monkeypatch):
        if str(REPO_ROOT) not in sys.path:
            sys.path.insert(0, str(REPO_ROOT))
        conftest = pytest.importorskip("benchmarks.conftest")
        monkeypatch.setattr(conftest, "RESULTS_DIR", tmp_path)
        spec = _blockchain_spec(name="bench-cell")
        path = conftest.emit_json(
            "store_smoke",
            config={"cells": 1},
            measurements=[{"label": "bench-cell", "wall_time_s": 0.1}],
            notes=["test"],
            specs=[spec],
        )
        record = json.loads(path.read_text())
        assert path.name == "BENCH_store_smoke.json"
        assert record["schema_version"] == STORE_SCHEMA_VERSION
        assert record["record_kind"] == "benchmark"
        assert record["spec_keys"] == {"bench-cell": spec_key(spec)}
        assert record["environment"]["cpus"] >= 1
