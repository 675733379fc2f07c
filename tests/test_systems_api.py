"""Tests for the system registry and the stable ``repro.api`` facade.

The central claims under test:

* **registry semantics** — duplicate and unknown names fail with actionable
  messages, and registrations satisfy the ``System`` protocol;
* **capability-derived validation** — engaging ``round_mode``/``attacks``/
  ``defense`` on a system whose registration lacks the axis is a
  ``ScenarioError``, and ``filter_unsupported_axes`` drops exactly those
  fields;
* **plugin round-trip** — a system registered from outside core runs through
  ``repro.api.run``, a TOML sweep, and the CLI (``--plugins``) with zero
  edits to ``cli.py``/``engine.py``;
* **API stability** — ``repro.api.__all__`` is pinned by a snapshot.

Every test that registers a system unregisters it again, so the registry the
rest of the suite sees holds exactly the five built-ins.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.systems import (
    System,
    SystemCapabilities,
    SystemRegistryError,
    TrainerRun,
    filter_unsupported_axes,
    get_system,
    load_plugins,
    register_system,
    system_names,
    unregister_system,
)
from repro.systems.registry import DuplicateSystemError, UnknownSystemError, systems_supporting

from paper_spec import paper_spec
from toy_trainer import ToyTrainer

REPO_ROOT = Path(__file__).resolve().parents[1]
BUILTINS = ("fairbfl", "fairbfl-discard", "fedavg", "fedprox", "blockchain")

#: The compatibility contract: changing repro.api's surface must be a
#: deliberate act that updates this snapshot (and docs/api.md) in the same
#: commit.
PINNED_API = [
    "ComparisonResult",
    "ExperimentEngine",
    "ReproServer",
    "RunResult",
    "RunStore",
    "ScenarioError",
    "ScenarioMatrix",
    "ScenarioResult",
    "ScenarioSpec",
    "SearchResult",
    "ServeClient",
    "StoredRun",
    "System",
    "SystemCapabilities",
    "TrainingHistory",
    "compare",
    "get_system",
    "list_systems",
    "load_plugins",
    "load_scenario",
    "register_system",
    "report",
    "run",
    "search",
    "serve",
    "spec_key",
    "submit",
    "sweep",
    "unregister_system",
]


class ToySystem(System):
    name = "toy"
    description = "synthetic fixed-history system for registry tests"
    capabilities = SystemCapabilities(needs_dataset=False)

    def build(self, spec, dataset):
        assert dataset is None, "needs_dataset=False systems must not receive a dataset"
        return TrainerRun(ToyTrainer(spec))


@pytest.fixture()
def toy_system():
    system = register_system(ToySystem())
    try:
        yield system
    finally:
        unregister_system("toy")


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = system_names()
        assert names[: len(BUILTINS)] == BUILTINS

    def test_get_system_resolves_builtins(self):
        for name in BUILTINS:
            assert get_system(name).name == name

    def test_unknown_system_error_is_actionable(self):
        with pytest.raises(UnknownSystemError) as excinfo:
            get_system("fedsgd")
        message = str(excinfo.value)
        assert "unknown system 'fedsgd'" in message
        assert "fairbfl" in message and "register_system" in message

    def test_duplicate_registration_error_is_actionable(self, toy_system):
        with pytest.raises(DuplicateSystemError) as excinfo:
            register_system(ToySystem())
        message = str(excinfo.value)
        assert "'toy'" in message and "already registered" in message
        assert "replace=True" in message and "unregister_system" in message

    def test_replace_swaps_the_registration(self, toy_system):
        replacement = ToySystem()
        assert register_system(replacement, replace=True) is replacement
        assert get_system("toy") is replacement

    def test_unregister_unknown_name(self):
        with pytest.raises(UnknownSystemError, match="cannot unregister"):
            unregister_system("never-registered")

    def test_register_rejects_protocol_violations(self):
        class NoName(System):
            name = ""

        with pytest.raises(SystemRegistryError, match="non-empty string 'name'"):
            register_system(NoName())

        class NoBuild:
            name = "no-build"
            capabilities = SystemCapabilities()
            build = None

        with pytest.raises(SystemRegistryError, match="build"):
            register_system(NoBuild())

        class BadCapabilities(System):
            name = "bad-caps"
            capabilities = {"needs_dataset": True}

            def build(self, spec, dataset):  # pragma: no cover - never runs
                raise AssertionError

        with pytest.raises(SystemRegistryError, match="SystemCapabilities"):
            register_system(BadCapabilities())

    def test_systems_supporting(self):
        assert set(systems_supporting("round_modes")) == {"fairbfl", "fairbfl-discard"}
        assert "blockchain" not in systems_supporting("defenses")
        with pytest.raises(SystemRegistryError, match="unknown capability axis"):
            systems_supporting("quantum")


class TestCapabilityValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"system": "fedavg", "round_mode": "async"}, "round_mode"),
            ({"system": "fedprox", "round_mode": "semi_sync"}, "round_mode"),
            ({"system": "blockchain", "defense": "krum"}, "defense"),
            ({"system": "fedavg", "attacks": True}, "attacks"),
            ({"system": "blockchain", "attacks": True}, "attacks"),
        ],
    )
    def test_unsupported_axis_engagement_rejected(self, overrides, match):
        with pytest.raises(ScenarioError, match=match):
            ScenarioSpec.from_mapping(overrides)

    def test_default_axis_values_always_accepted(self):
        # sharing one flag set across systems (CLI compare) must keep working
        for system in BUILTINS:
            ScenarioSpec(system=system, round_mode="sync", defense="none").validate()

    def test_supported_axes_still_validate(self):
        ScenarioSpec(system="fairbfl", round_mode="async", attacks=True, defense="krum").validate()
        ScenarioSpec(system="fedavg", defense="median").validate()

    def test_filter_unsupported_axes(self):
        fields = {
            "round_mode": "async",
            "straggler_deadline": 2.0,
            "attacks": True,
            "attack_name": "scaling",
            "defense": "krum",
            "defense_fraction": 0.3,
            "num_rounds": 3,
        }
        assert filter_unsupported_axes("fairbfl", fields) == fields
        filtered = filter_unsupported_axes("blockchain", fields)
        assert filtered == {"num_rounds": 3}
        fedavg = filter_unsupported_axes("fedavg", fields)
        assert fedavg == {"defense": "krum", "defense_fraction": 0.3, "num_rounds": 3}

    def test_filter_keeps_guard_values_that_are_valid_everywhere(self):
        """cohort/net are engaged by *value*: serial and global reach every system."""
        shared = {"backend": "serial", "topology": "global", "peer_k": 2, "num_rounds": 3}
        assert filter_unsupported_axes("blockchain", shared) == shared
        ScenarioSpec.from_mapping({**shared, "system": "blockchain"})  # and it validates
        engaged = {
            "backend": "cohort",
            "topology": "ring",
            "peer_k": 2,
            "partition": "split",
            "churn": 0.1,
            "num_rounds": 3,
        }
        assert filter_unsupported_axes("blockchain", engaged) == {"num_rounds": 3}
        # fedavg has the cohort capability but no gossip substrate.
        assert filter_unsupported_axes("fedavg", engaged) == {"backend": "cohort", "num_rounds": 3}
        assert filter_unsupported_axes("fairbfl", engaged) == engaged


class TestEngineRegistryDispatch:
    def test_needs_dataset_false_skips_dataset_build(self, toy_system):
        engine = ExperimentEngine()
        history = engine.run(ScenarioSpec(system="toy", name="toy-run", num_rounds=3))
        assert len(history) == 3
        assert history.label == "toy-run"
        assert engine._dataset_cache == {}

    def test_run_result_carries_system(self, toy_system):
        result = ExperimentEngine().run_result(ScenarioSpec(system="toy", num_rounds=1))
        assert result.system == "toy"
        assert len(result.history) == 1


class TestApiFacade:
    def test_public_api_snapshot(self):
        assert api.__all__ == PINNED_API
        for name in PINNED_API:
            assert getattr(api, name) is not None

    def test_list_systems_matches_registry(self):
        assert api.list_systems() == system_names()

    def test_run_accepts_name_mapping_and_spec(self, toy_system):
        by_name = api.run("toy", num_rounds=2)
        assert len(by_name) == 2 and by_name.label == "toy"
        by_mapping = api.run({"system": "toy", "name": "m", "num_rounds": 1})
        assert len(by_mapping) == 1 and by_mapping.label == "m"
        by_spec = api.run(ScenarioSpec(system="toy", name="s", num_rounds=1), num_rounds=2)
        assert len(by_spec) == 2 and by_spec.label == "s"

    def test_run_rejects_bad_target(self):
        with pytest.raises(ScenarioError, match="system name"):
            api.run(42)

    def test_load_scenario_mapping_and_file(self, tmp_path):
        specs = api.load_scenario({"system": "blockchain", "num_rounds": 2})
        assert len(specs) == 1 and specs[0].system == "blockchain"
        path = tmp_path / "one.toml"
        path.write_text('system = "blockchain"\nnum_rounds = 1\n', encoding="utf-8")
        assert api.load_scenario(path)[0].name == "one"

    def test_sweep_toml_round_trip_with_plugin_system(self, toy_system, tmp_path):
        path = tmp_path / "toy_sweep.toml"
        path.write_text(
            'name = "toy-sweep"\n[base]\nsystem = "toy"\n[matrix]\nnum_rounds = [1, 2]\n',
            encoding="utf-8",
        )
        table, results = api.sweep(path)
        assert [r.spec.num_rounds for r in results] == [1, 2]
        assert [row[1] for row in table.rows] == ["toy", "toy"]
        assert table.title == "Scenario sweep (2 scenarios)"

    def test_sweep_overrides_are_capability_filtered(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(
            '{"base": {"num_rounds": 1, "num_clients": 6, "num_samples": 400},'
            ' "scenarios": [{"name": "f", "system": "fairbfl"},'
            ' {"name": "b", "system": "blockchain"}]}',
            encoding="utf-8",
        )
        _table, results = api.sweep(path, overrides={"defense": "median"})
        by_name = {r.spec.name: r.spec for r in results}
        assert by_name["f"].defense == "median"
        assert by_name["b"].defense == "none"

    def test_compare_runs_selected_systems(self):
        table, results = api.compare(
            ("fedavg", "blockchain"),
            num_clients=6,
            num_samples=400,
            num_rounds=1,
            model_name="logreg",
        )
        assert [row[0] for row in table.rows] == ["fedavg", "blockchain"]
        assert {r.spec.system for r in results} == {"fedavg", "blockchain"}

    def test_compare_filters_axes_and_applies_per_system(self):
        # round_mode reaches only the round-mode capable systems; per_system
        # overrides land on exactly their target.
        table, results = api.compare(
            ("fairbfl", "fedavg"),
            num_clients=6,
            num_samples=400,
            num_rounds=1,
            round_mode="semi_sync",
            per_system={"fedavg": {"participation": 1.0}},
            model_name="logreg",
        )
        specs = {r.spec.system: r.spec for r in results}
        assert specs["fairbfl"].round_mode == "semi_sync"
        assert specs["fedavg"].round_mode == "sync"
        assert specs["fedavg"].participation == 1.0
        assert len(table.rows) == 2

    def test_compare_unknown_system_fails_fast(self):
        with pytest.raises(UnknownSystemError, match="unknown system 'nope'"):
            api.compare(("nope",), num_rounds=1)


class TestPluginRoundTrip:
    """examples/custom_system.py runs everywhere with zero core edits."""

    PLUGIN = str(REPO_ROOT / "examples" / "custom_system.py")

    @pytest.fixture()
    def momentum_plugin(self):
        load_plugins([self.PLUGIN], reload=True)
        try:
            yield
        finally:
            unregister_system("fedavg-momentum")

    def test_plugin_registers_and_runs_via_api(self, momentum_plugin):
        history = api.run(
            "fedavg-momentum", num_clients=6, num_samples=400, num_rounds=2,
            model_name="logreg",
        )
        assert len(history) == 2

    def test_plugin_momentum_zero_matches_fedavg(self, momentum_plugin, tiny_federated):
        # beta=0 must recover plain FedAvg *exactly*.  The trainer label seeds
        # the selection/delay RNG streams, so pin it to "fedavg" to put both
        # trainers on identical draws and compare the aggregation math alone.
        from repro.fl.fedavg import FedAvgTrainer

        module = load_plugins([self.PLUGIN])[0]

        class ZeroMomentum(module.MomentumFedAvgTrainer):
            label = "fedavg"

        spec = paper_spec(
            system="fedavg", num_rounds=2, participation=0.5, model_name="logreg", seed=7
        )
        plain = FedAvgTrainer(tiny_federated, spec).run()
        zero = ZeroMomentum(tiny_federated, spec, momentum=0.0).run()
        assert [(r.accuracy, r.train_loss, r.delay, tuple(r.participants)) for r in zero.rounds] == [
            (r.accuracy, r.train_loss, r.delay, tuple(r.participants)) for r in plain.rounds
        ]

    def test_plugin_sweep_toml_via_api(self, momentum_plugin):
        _table, results = api.sweep(REPO_ROOT / "examples" / "custom_sweep.toml")
        systems = {r.spec.system for r in results}
        assert systems == {"fedavg", "fedavg-momentum"}
        assert len(results) == 4

    def test_plugin_cli_run_in_fresh_process(self):
        # The strongest zero-edits claim: a fresh interpreter where *only*
        # the --plugins flag introduces the system.
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "--plugins", self.PLUGIN,
                "run", "fedavg-momentum",
                "--clients", "6", "--rounds", "1", "--samples", "400",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "== fedavg-momentum ==" in result.stdout

    def test_plugin_cli_sweep_and_compare(self, momentum_plugin, capsys, tmp_path):
        # In-process: the plugin flag resolves to the already-loaded module
        # (load_plugins caches by file path) and the registered system flows
        # into sweep validation and compare's roster without CLI edits.
        code = main(
            [
                "--plugins", self.PLUGIN,
                "sweep", "--scenario", str(REPO_ROOT / "examples" / "custom_sweep.toml"),
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert "fedavg-momentum" in capsys.readouterr().out

        code = main(
            [
                "--plugins", self.PLUGIN,
                "compare", "--clients", "6", "--rounds", "1", "--samples", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fedavg-momentum" in out and "blockchain" in out

    def test_plugin_prescan_matches_argparse_abbreviations(self):
        # argparse prefix-matches long options, so every form it would accept
        # must also be seen by the pre-scan that loads plugins early.
        from repro.cli import _plugin_entries

        assert _plugin_entries(["--plugins", "a.py", "run", "fairbfl"]) == ["a.py"]
        assert _plugin_entries(["--plugins=a.py"]) == ["a.py"]
        assert _plugin_entries(["--plugin", "a.py"]) == ["a.py"]
        assert _plugin_entries(["--plug=a.py"]) == ["a.py"]
        assert _plugin_entries(["--p", "a.py"]) == ["a.py"]
        # ...but the scan stops at the subcommand: past it, --p abbreviates
        # the subparsers' --participation, never --plugins.
        assert _plugin_entries(["run", "fairbfl", "--participation", "0.5"]) == []
        assert _plugin_entries(["run", "fairbfl", "--p", "0.5"]) == []
        assert _plugin_entries(["--plugins", "a.py", "run", "fairbfl", "--p", "0.5"]) == ["a.py"]

    def test_plugin_cli_abbreviated_flag(self, momentum_plugin, capsys):
        code = main(
            ["--plugin", self.PLUGIN, "run", "fedavg-momentum",
             "--clients", "6", "--rounds", "1", "--samples", "400"]
        )
        assert code == 0
        assert "== fedavg-momentum ==" in capsys.readouterr().out

    def test_cli_reports_broken_plugin(self, tmp_path, capsys):
        bad = tmp_path / "broken_plugin.py"
        bad.write_text("raise RuntimeError('boom')\n", encoding="utf-8")
        code = main(["--plugins", str(bad), "run", "fedavg"])
        assert code == 2
        err = capsys.readouterr().err
        assert "broken_plugin" in err and "boom" in err

    def test_load_plugins_unknown_entry(self):
        with pytest.raises(SystemRegistryError, match="no_such_plugin"):
            load_plugins(["repro_no_such_plugin_module"])
        with pytest.raises(SystemRegistryError, match="not found"):
            load_plugins(["/nonexistent/plugin.py"])
