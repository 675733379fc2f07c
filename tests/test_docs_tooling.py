"""Documentation freshness and CLI help-snapshot tests.

Two guards that keep the docs truthful as the code grows:

* the ``--help`` output of the CLI must match the committed snapshot
  (``docs/cli_help.txt``) — regenerate with
  ``REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py``;
* ``tools/check_docs.py`` must pass: every public module has a docstring,
  README's benchmark map matches the ``benchmarks/`` directory, and
  ``docs/scenarios.md`` documents every ``ScenarioSpec`` field with the type
  and default the dataclass declares.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.runner.scenario import ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = REPO_ROOT / "docs" / "cli_help.txt"


def _render_help() -> str:
    """Top-level plus per-subcommand --help text at a pinned 80-column width.

    Including the subcommand helps pins every flag (``--defense``,
    ``--round-mode``, ...) in the snapshot, which is what lets
    ``tools/check_docs.py`` assert that no CLI flag goes undocumented.
    """
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        import argparse

        parser = build_parser()
        sections = [parser.format_help()]
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    sections.append(f"{'=' * 24} {name} {'=' * 24}\n" + sub.format_help())
        return "\n".join(sections)
    finally:
        if previous is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = previous


class TestCliHelpSnapshot:
    def test_help_matches_snapshot(self):
        text = _render_help()
        if os.environ.get("REGEN_SNAPSHOTS") == "1":
            SNAPSHOT.write_text(text, encoding="utf-8")
        assert SNAPSHOT.exists(), "docs/cli_help.txt snapshot is missing"
        assert text == SNAPSHOT.read_text(encoding="utf-8"), (
            "CLI --help drifted from docs/cli_help.txt; regenerate with "
            "REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py"
        )

    def test_help_mentions_every_subcommand(self):
        text = _render_help()
        for subcommand in ("run", "compare", "sweep"):
            assert subcommand in text

    def test_sweep_reports_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"learning_rte": 0.1}')
        code = main(["sweep", "--scenario", str(bad)])
        assert code == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_sweep_runs_scenario_file(self, tmp_path, capsys):
        spec_file = tmp_path / "mini.json"
        spec_file.write_text(
            '{"system": "blockchain", "num_clients": 6, "num_rounds": 2}'
        )
        export = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--scenario",
                str(spec_file),
                "--export",
                str(export),
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario sweep" in out and "mini" in out
        assert export.read_text().splitlines()[0].startswith("scenario,system")


class TestDocsFreshness:
    def test_check_docs_passes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, f"docs-check failed:\n{result.stderr}"

    def test_scenario_reference_covers_all_fields(self):
        doc = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
        missing = [f for f in ScenarioSpec.field_names() if f"`{f}`" not in doc]
        assert not missing, f"docs/scenarios.md missing fields: {missing}"

    @staticmethod
    def _load_check_docs():
        import importlib.util

        loader = importlib.util.spec_from_file_location(
            "check_docs", REPO_ROOT / "tools" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(check_docs)
        return check_docs

    def test_scenario_reference_catches_a_drifted_default(self, tmp_path, monkeypatch):
        check_docs = self._load_check_docs()
        assert check_docs.check_scenario_reference() == []
        doc = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
        row = "| `num_rounds` | int | `10` |"
        assert row in doc
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "scenarios.md").write_text(
            doc.replace(row, "| `num_rounds` | int | `12` |"), encoding="utf-8"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        (problem,) = check_docs.check_scenario_reference()
        assert "num_rounds" in problem and "12" in problem

    def test_cross_references_catch_a_deleted_target(self, tmp_path, monkeypatch):
        check_docs = self._load_check_docs()
        assert check_docs.check_cross_references() == []
        (tmp_path / "docs").mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text(
            "Flooding is :class:`~repro.net.gossip.GossipNetwork` (see :mod:`repro.net`), "
            "runs go through :meth:`repro.runner.engine.ExperimentEngine.run_result`, and "
            "miners once used :class:`~repro.blockchain.network.BroadcastNetwork` and "
            ":meth:`~repro.net.gossip.GossipNetwork.teleport`.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        problems = check_docs.check_cross_references()
        assert len(problems) == 2 and all(p.startswith("README.md:") for p in problems)
        assert "'repro.blockchain.network.BroadcastNetwork'" in problems[0]
        assert "'repro.net.gossip.GossipNetwork.teleport'" in problems[1]

    def test_cross_references_catch_a_plain_backticked_path(self, tmp_path, monkeypatch):
        check_docs = self._load_check_docs()
        (tmp_path / "docs").mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "docs" / "guide.md").write_text(
            "Keys come from `repro.store.keys.spec_key()`, names from "
            "`repro.attacks.gradient_attacks.ATTACKS`, and specs once from\n"
            "`repro.runner.ScenarioSpec`; `python -m repro.cli run` is a command.\n",
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text("See `repro.api`.\n", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        assert check_docs.check_cross_references() == [
            "docs/guide.md: cross-reference target 'repro.runner.ScenarioSpec' does not resolve"
        ]

    def test_layering_catches_an_upward_import(self, tmp_path, monkeypatch):
        check_docs = self._load_check_docs()
        assert check_docs.check_layering() == []
        fl = tmp_path / "src" / "repro" / "fl"
        fl.mkdir(parents=True)
        (fl / "planted.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "from repro.fl.client import FLClient\n"
            "from repro import api\n"
            "if TYPE_CHECKING:\n"
            "    from repro.runner.engine import ExperimentEngine, ScenarioResult\n"
            "def late():\n"
            "    import repro.store.runstore\n",
            encoding="utf-8",
        )
        runner = tmp_path / "src" / "repro" / "runner"
        runner.mkdir()
        (runner / "fine.py").write_text(
            "from repro.store.runstore import RunStore\n", encoding="utf-8"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        problems = check_docs.check_layering()
        assert [p.split(": ")[0] for p in problems] == [
            "src/repro/fl/planted.py:3",
            "src/repro/fl/planted.py:5",
            "src/repro/fl/planted.py:7",
        ]
        assert problems[1].endswith(
            "repro.runner.engine.ExperimentEngine, repro.runner.engine.ScenarioResult"
        )

    def test_path_references_catch_a_deleted_file(self, tmp_path, monkeypatch):
        check_docs = self._load_check_docs()
        assert check_docs.check_path_references() == []
        package = tmp_path / "src" / "repro" / "blockchain"
        package.mkdir(parents=True)
        (tmp_path / "docs").mkdir()
        (tmp_path / "src" / "repro" / "fl").mkdir()
        (tmp_path / "src" / "repro" / "fl" / "trainer.py").write_text("", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "See `fl/trainer.py` and `src/repro/fl/trainer.py`; `runner/executor.py`\n"
            "(moved) became `fl/executor.py` (historical name).\n",
            encoding="utf-8",
        )
        # The line PR 18 left behind in blockchain/transaction.py, verbatim.
        (package / "transaction.py").write_text(
            "def f():\n"
            "    # Through the constructor: a mappingproxy does not pickle, and the\n"
            "    # checkpoint blob (runner/checkpoint.py) carries whole chains.\n"
            "    return None\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        (problem,) = check_docs.check_path_references()
        assert problem.startswith("src/repro/blockchain/transaction.py:3: ")
        assert "'runner/checkpoint.py'" in problem

    def _export_tree(self, tmp_path, monkeypatch):
        """A repo whose ``repro.pkg.mod`` exports ``used`` (imported by a
        sibling module) and ``unused`` (read only inside its own module); the
        package re-exports nothing."""
        check_docs = self._load_check_docs()
        package = tmp_path / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "api.py").write_text("__all__ = []\n", encoding="utf-8")
        (package / "__init__.py").write_text('"""The package."""\n', encoding="utf-8")
        (package / "mod.py").write_text(
            '__all__ = ["used", "unused"]\n\ndef used():\n    return unused()\n\n'
            "def unused():\n    return 0\n",
            encoding="utf-8",
        )
        (package / "other.py").write_text("from repro.pkg.mod import used\n", encoding="utf-8")
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        monkeypatch.setattr(check_docs, "EXPORT_ALLOWLIST", {})
        monkeypatch.setattr(check_docs, "SETTER_ALLOWLIST", {})
        return check_docs

    def test_exports_catch_a_callerless_name(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (problem,) = check_docs.check_exports()
        assert problem.startswith("src/repro/pkg/mod.py: 'unused' is in __all__")

    def test_exports_do_not_count_a_use_from_tests(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.pkg.mod import unused\n", encoding="utf-8"
        )
        (problem,) = check_docs.check_exports()
        assert "'unused'" in problem

    def test_exports_count_a_use_from_benchmarks(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_mod.py").write_text(
            "from repro.pkg import mod\nmod.unused()\n", encoding="utf-8"
        )
        assert check_docs.check_exports() == []

    def test_exports_count_a_use_from_examples(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "import repro.pkg.mod as m\nprint(m.unused)\n", encoding="utf-8"
        )
        assert check_docs.check_exports() == []

    def test_exports_count_an_aliased_import_from_tools(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "tool.py").write_text(
            "from repro.pkg.mod import unused as u\n", encoding="utf-8"
        )
        assert check_docs.check_exports() == []

    def test_exports_do_not_count_a_string_mention(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "pkg" / "other.py").write_text(
            '"""Calls unused() by name."""\nfrom repro.pkg import mod\n'
            'from repro.pkg.mod import used\ngetattr(mod, "unused")\n',
            encoding="utf-8",
        )
        (problem,) = check_docs.check_exports()
        assert "'unused'" in problem

    def test_exports_do_not_count_a_binding_of_the_name(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_mod.py").write_text(
            "unused = 3\n\ndef f(unused=None):\n    pass\n", encoding="utf-8"
        )
        (problem,) = check_docs.check_exports()
        assert "'unused'" in problem

    def test_exports_pass_a_facade_name(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "api.py").write_text(
            "__all__ = ['unused']\n", encoding="utf-8"
        )
        assert check_docs.check_exports() == []

    def test_exports_catch_a_stale_allow_list_entry(self, tmp_path, monkeypatch):
        check_docs = self._export_tree(tmp_path, monkeypatch)
        monkeypatch.setattr(
            check_docs,
            "EXPORT_ALLOWLIST",
            {
                "repro.pkg.mod:unused": "kept on purpose",
                "repro.pkg.mod:used": "no longer needed: other.py uses it",
                "repro.pkg.mod:gone": "deleted since",
            },
        )
        problems = check_docs.check_exports()
        assert problems == [
            "export allow-list entry 'repro.pkg.mod:used' is stale: the name is used",
            "export allow-list entry 'repro.pkg.mod:gone' is stale: no module exports that name",
        ]

    def _reexport_tree(self, tmp_path, monkeypatch):
        """:meth:`_export_tree` whose package re-exports ``used`` and whose
        top-level ``repro`` package re-exports ``unused``; nothing imports
        either through its package."""
        check_docs = self._export_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "pkg" / "__init__.py").write_text(
            "from repro.pkg.mod import used\n__all__ = ['used']\n", encoding="utf-8"
        )
        (tmp_path / "src" / "repro" / "__init__.py").write_text(
            "from repro.pkg.mod import unused\n__all__ = ['unused']\n", encoding="utf-8"
        )
        return check_docs

    def test_reexports_catch_one_nothing_imports_through_the_package(
        self, tmp_path, monkeypatch
    ):
        check_docs = self._reexport_tree(tmp_path, monkeypatch)
        reexport, unused = check_docs.check_exports()
        assert reexport == (
            "src/repro/pkg/__init__.py: 'used' is re-exported in __all__ but nothing in "
            "src, examples, benchmarks, tools imports it through repro.pkg (import it from "
            "its defining module and delete the re-export, or allow-list it with a reason)"
        )
        # The re-export is no use of the name, and the top-level package is exempt.
        assert unused.startswith("src/repro/pkg/mod.py: 'unused' is in __all__")

    @pytest.mark.parametrize(
        "code",
        [
            "from repro.pkg import used\n",
            "from repro.pkg import used as u\n",
            "import repro.pkg\nprint(repro.pkg.used())\n",
        ],
    )
    def test_reexports_count_an_import_or_a_read_through_the_package(
        self, tmp_path, monkeypatch, code
    ):
        check_docs = self._reexport_tree(tmp_path, monkeypatch)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(code, encoding="utf-8")
        assert not [p for p in check_docs.check_exports() if "re-exported" in p]

    @pytest.mark.parametrize(
        "code",
        [
            "from repro.pkg.mod import used\n",  # its defining module, not the package
            "from repro.other import used\n",  # another package's name
            "import repro.pkg as pkg\nprint(pkg.used())\n",  # no qualified path
        ],
    )
    def test_reexports_do_not_count_a_read_around_the_package(
        self, tmp_path, monkeypatch, code
    ):
        check_docs = self._reexport_tree(tmp_path, monkeypatch)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(code, encoding="utf-8")
        assert len([p for p in check_docs.check_exports() if "re-exported" in p]) == 1

    def test_reexports_do_not_count_an_import_in_another_package_init(
        self, tmp_path, monkeypatch
    ):
        check_docs = self._reexport_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "__init__.py").write_text(
            "from repro.pkg import used\n", encoding="utf-8"
        )
        other = tmp_path / "src" / "repro" / "other"
        other.mkdir()
        (other / "__init__.py").write_text("from repro.pkg import used\n", encoding="utf-8")
        problems = [p for p in check_docs.check_exports() if "re-exported" in p]
        assert [p.split(":")[0] for p in problems] == ["src/repro/pkg/__init__.py"]

    def test_reexports_pass_an_allow_listed_name(self, tmp_path, monkeypatch):
        check_docs = self._reexport_tree(tmp_path, monkeypatch)
        monkeypatch.setattr(check_docs, "EXPORT_ALLOWLIST", {"repro.pkg:used": "kept"})
        assert not [p for p in check_docs.check_exports() if "re-exported" in p]

    def _definition_tree(self, tmp_path, monkeypatch):
        """A repo whose ``repro.pkg.mod`` exports ``Store`` (used by a sibling
        module through ``put``) and ``Reference`` (used by nothing), and
        defines the module-level function ``stray`` (read by nothing)."""
        check_docs = self._load_check_docs()
        package = tmp_path / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "api.py").write_text("__all__ = []\n", encoding="utf-8")
        (package / "mod.py").write_text(
            '__all__ = ["Store", "Reference"]\n\n'
            "class Store:\n"
            "    def __len__(self):\n        return 0\n\n"
            "    def put(self):\n        return self.helper()\n\n"
            "    @property\n    def helper(self):\n        return 1\n\n"
            "    def unused(self):\n        return self.unused() + self.only_dead_code_calls()\n\n"
            "    def only_dead_code_calls(self):\n        return 2\n\n"
            "class Reference:\n    def compute(self):\n        return 3\n\n"
            "class _Private:\n    def hidden(self):\n        return 4\n\n"
            "def stray():\n    return stray()\n",
            encoding="utf-8",
        )
        (package / "other.py").write_text(
            "from repro.pkg.mod import Store\n\nunused = 0\nprint(Store().put(), unused)\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        monkeypatch.setattr(
            check_docs, "EXPORT_ALLOWLIST", {"repro.pkg.mod:Reference": "kept on purpose"}
        )
        monkeypatch.setattr(check_docs, "SETTER_ALLOWLIST", {})
        return check_docs

    def test_definitions_catch_an_unused_method_and_what_only_it_reads(
        self, tmp_path, monkeypatch
    ):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        problems = check_docs.check_exports()
        # Neither its own recursive call nor a same-named variable reads a
        # method; the helper only the unused method calls goes with it.
        assert [p.split(": ")[1].split(" ")[0] for p in problems] == [
            "'Store.unused'", "'Store.only_dead_code_calls'", "'stray'"
        ]
        assert problems[0].startswith("src/repro/pkg/mod.py:14: 'Store.unused' is public")

    def test_definitions_catch_methods_that_only_read_each_other(self, tmp_path, monkeypatch):
        """Two public methods that call only each other keep neither alive: the
        fixed point starts from everything unused, not from nothing."""
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "pkg" / "cycle.py").write_text(
            "class Ring:\n"
            "    def ping(self):\n        return self.pong()\n\n"
            "    def pong(self):\n        return self.ping()\n\n"
            "    def run(self):\n        return 0\n\n"
            "print(Ring().run())\n",
            encoding="utf-8",
        )
        problems = [p for p in check_docs.check_exports() if "cycle.py" in p]
        assert [p.split(": ")[1].split(" ")[0] for p in problems] == ["'Ring.ping'", "'Ring.pong'"]

    def test_definitions_do_not_count_a_read_from_tests(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.pkg.mod import Store, stray\nStore().unused()\nstray()\n",
            encoding="utf-8",
        )
        assert len(check_docs.check_exports()) == 3

    def test_definitions_count_a_span_table_string(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "spans.py").write_text(
            'TARGETS = ("repro.pkg.mod:Store.unused", "repro.pkg.mod:stray")\n',
            encoding="utf-8",
        )
        assert check_docs.check_exports() == []

    def test_definitions_pass_a_facade_class_and_an_allow_listed_class(
        self, tmp_path, monkeypatch
    ):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "api.py").write_text(
            "__all__ = ['Store', 'stray']\n", encoding="utf-8"
        )
        # Reference.compute has no read either: the class's entry covers it.
        assert check_docs.check_exports() == []

    def test_definitions_catch_a_stale_allow_list_entry(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        monkeypatch.setitem(check_docs.EXPORT_ALLOWLIST, "repro.pkg.mod:Store.unused", "kept")
        monkeypatch.setitem(check_docs.EXPORT_ALLOWLIST, "repro.pkg.mod:Store.put", "used now")
        monkeypatch.setitem(check_docs.EXPORT_ALLOWLIST, "repro.pkg.mod:Store.gone", "deleted")
        problems = check_docs.check_exports()
        assert problems == [
            "export allow-list entry 'repro.pkg.mod:Store.put' is stale: the name is used",
            "src/repro/pkg/mod.py:28: 'stray' is public but nothing in src, examples, "
            "benchmarks, tools reads it outside its own body or dead code (use it, "
            "delete it, or allow-list it with a reason)",
            "export allow-list entry 'repro.pkg.mod:Store.gone' is stale: no module "
            "exports that name",
        ]

    def test_definitions_count_a_getattr_name(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "probe.py").write_text(
            'from repro.pkg.mod import Store\nprint(getattr(Store(), "unused")())\n',
            encoding="utf-8",
        )
        # The live method keeps the helper it calls alive too.
        (problem,) = check_docs.check_exports()
        assert "'stray' is public" in problem

    def test_definitions_count_a_read_in_the_defining_module(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
        mod.write_text(mod.read_text(encoding="utf-8") + "\nVALUE = stray()\n", encoding="utf-8")
        problems = check_docs.check_exports()
        assert [p.split(": ")[1].split(" ")[0] for p in problems] == [
            "'Store.unused'", "'Store.only_dead_code_calls'"
        ]

    def test_definitions_count_a_method_call_from_examples(self, tmp_path, monkeypatch):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from repro.pkg.mod import Store, stray\nStore().unused()\nstray()\n",
            encoding="utf-8",
        )
        assert check_docs.check_exports() == []

    def test_definitions_report_an_unused_class_but_not_its_methods(
        self, tmp_path, monkeypatch
    ):
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        monkeypatch.setattr(check_docs, "EXPORT_ALLOWLIST", {})
        problems = check_docs.check_exports()
        assert [p for p in problems if "Reference" in p] == [
            "src/repro/pkg/mod.py: 'Reference' is in __all__ but nothing in src, examples, "
            "benchmarks, tools outside its module uses it (use it, delete it, or allow-list "
            "it with a reason)"
        ]

    def test_definitions_catch_a_write_only_stored_value(self, tmp_path, monkeypatch):
        """A dataclass field or ``self.`` attribute that is stored but never read
        is reported: a keyword argument and ``+=`` write it, a read keeps it."""
        check_docs = self._definition_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "pkg" / "stored.py").write_text(
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Outcome:\n    kept: int\n    noted: int\n\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.floods = 0\n"
            "        self.total, self._seen = 0, 0\n\n"
            "    def tick(self, outcome):\n"
            "        self.floods += 1\n"
            "        return outcome.kept + self.total\n\n"
            "print(Counter().tick(Outcome(kept=1, noted=2)))\n",
            encoding="utf-8",
        )
        problems = [p for p in check_docs.check_exports() if "stored.py" in p]
        assert [p.split(": ")[1].split(" ")[0] for p in problems] == [
            "'Outcome.noted'", "'Counter.floods'"
        ]
        assert problems[0].startswith("src/repro/pkg/stored.py:6: 'Outcome.noted' is public")

    def _option_tree(self, tmp_path, monkeypatch):
        """A repo whose ``repro.pkg.mod`` declares four options no caller sets
        (``Config(rate)``, ``Base(size)``, ``train(epochs)``, ``train(steps)``)
        and one ``default_factory`` container (``Config(items)``); a sibling
        module reads every definition, so only the setter rule reports.
        ``Config.__post_init__`` normalising ``rate`` does not set it."""
        check_docs = self._load_check_docs()
        package = tmp_path / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "api.py").write_text("__all__ = []\n", encoding="utf-8")
        (package / "mod.py").write_text(
            "from dataclasses import dataclass, field\n\n"
            "@dataclass\nclass Config:\n"
            "    rate: float = 0.1\n"
            "    items: list = field(default_factory=list)\n\n"
            "    def __post_init__(self):\n        self.rate = float(self.rate)\n\n"
            "    @classmethod\n    def make(cls):\n        return cls()\n\n"
            "class Base:\n    def __init__(self, size=1):\n        self.size = size\n\n"
            "def train(data, epochs=1, *, steps=10):\n    return data, epochs, steps\n",
            encoding="utf-8",
        )
        (package / "other.py").write_text(
            "from repro.pkg.mod import Base, Config, train\n\n"
            "cfg = Config.make()\nprint(train(cfg), cfg.rate, cfg.items, Base().size)\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(check_docs, "SRC_ROOT", tmp_path / "src")
        monkeypatch.setattr(check_docs, "EXPORT_ALLOWLIST", {})
        monkeypatch.setattr(check_docs, "SETTER_ALLOWLIST", {})
        return check_docs

    @staticmethod
    def _unset(problems):
        return [p.split("option ")[1].split(" ")[0] for p in problems if " option " in p]

    def test_setters_catch_an_option_no_caller_passes(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        problems = check_docs.check_exports()
        assert self._unset(problems) == [
            "'repro.pkg.mod:Config(rate)'", "'repro.pkg.mod:Base(size)'",
            "'repro.pkg.mod:train(epochs)'", "'repro.pkg.mod:train(steps)'",
        ]
        assert problems[0] == (
            "src/repro/pkg/mod.py:5: option 'repro.pkg.mod:Config(rate)' has a default "
            "that nothing in src, examples, benchmarks, tools overrides (fold it into a "
            "constant, or allow-list it with a reason)"
        )

    def test_setters_exempt_a_default_factory_container(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        assert not [p for p in check_docs.check_exports() if "items" in p]

    def test_setters_count_a_call_from_benchmarks(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_mod.py").write_text(
            "from repro.pkg import mod\nmod.train(None, 2, steps=3)\n", encoding="utf-8"
        )
        assert self._unset(check_docs.check_exports()) == [
            "'repro.pkg.mod:Config(rate)'", "'repro.pkg.mod:Base(size)'"
        ]

    def test_setters_do_not_count_a_call_from_tests(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text(
            "from repro.pkg.mod import Base, Config, train\n"
            "train(None, 2, steps=3)\nBase(size=2)\nConfig(rate=0.5)\n",
            encoding="utf-8",
        )
        assert len(self._unset(check_docs.check_exports())) == 4

    @pytest.mark.parametrize(
        "code, now_set",
        [
            ("train(None, 2)", ["train(epochs)"]),
            ("train(*rows)", ["train(epochs)"]),
            ("train(None, **kwargs)", ["train(epochs)", "train(steps)"]),
            ("benchmark(train, None, 2, steps=3)", ["train(epochs)", "train(steps)"]),
            ("cfg.rate = 0.5", ["Config(rate)"]),
            ("replace(cfg, rate=0.5)", ["Config(rate)"]),
            (
                "class Child(Base):\n    def __init__(self):\n        super().__init__(size=2)",
                ["Base(size)"],
            ),
        ],
    )
    def test_setters_count_positions_spreads_stores_and_forwarding(
        self, tmp_path, monkeypatch, code, now_set
    ):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(code + "\n", encoding="utf-8")
        unset = self._unset(check_docs.check_exports())
        assert len(unset) == 4 - len(now_set)
        assert not [u for u in unset if any(option in u for option in now_set)]

    def test_setters_count_a_cls_call_inside_the_class(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        mod = tmp_path / "src" / "repro" / "pkg" / "mod.py"
        mod.write_text(
            mod.read_text(encoding="utf-8").replace("return cls()", "return cls(0.5)"),
            encoding="utf-8",
        )
        assert "'repro.pkg.mod:Config(rate)'" not in self._unset(check_docs.check_exports())

    def test_setters_pass_a_facade_name(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        (tmp_path / "src" / "repro" / "api.py").write_text(
            "__all__ = ['Config', 'train']\n", encoding="utf-8"
        )
        assert self._unset(check_docs.check_exports()) == ["'repro.pkg.mod:Base(size)'"]

    def test_setters_catch_a_stale_allow_list_entry(self, tmp_path, monkeypatch):
        check_docs = self._option_tree(tmp_path, monkeypatch)
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "tool.py").write_text(
            "from repro.pkg.mod import Base\nBase(2)\n", encoding="utf-8"
        )
        monkeypatch.setattr(
            check_docs,
            "SETTER_ALLOWLIST",
            {
                "repro.pkg.mod:Config(rate)": "kept on purpose",
                "repro.pkg.mod:Base(size)": "no longer needed: tools/tool.py sets it",
                "repro.pkg.mod:train(gone)": "deleted since",
            },
        )
        problems = check_docs.check_exports()
        assert [p for p in problems if p.startswith("setter allow-list")] == [
            "setter allow-list entry 'repro.pkg.mod:Base(size)' is stale: a caller sets it",
            "setter allow-list entry 'repro.pkg.mod:train(gone)' is stale: no such option",
        ]
        assert self._unset(problems) == [
            "'repro.pkg.mod:train(epochs)'", "'repro.pkg.mod:train(steps)'"
        ]

    def test_readme_benchmark_map_is_fresh(self):
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", readme))
        existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        assert referenced == existing
