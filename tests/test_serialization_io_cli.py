"""Tests for history export and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.io import save_comparison_csv, save_history_csv
from repro.core.results import ComparisonResult
from repro.fl.history import RoundRecord, TrainingHistory


class TestHistoryIO:
    def _history(self):
        hist = TrainingHistory(label="x")
        for i in range(4):
            hist.append(
                RoundRecord(
                    round_index=i,
                    delay=1.5,
                    accuracy=0.2 * i,
                    train_loss=1.0 / (i + 1),
                    elapsed_time=1.5 * (i + 1),
                    participants=[0, 1],
                    discarded=[2] if i == 2 else [],
                    attackers=[3] if i == 1 else [],
                    rewards={0: 0.5, 1: 0.5},
                )
            )
        return hist

    def test_csv_export(self, tmp_path):
        path = save_history_csv(self._history(), tmp_path / "hist.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("round_index,delay,accuracy")
        assert len(lines) == 5

    def test_comparison_csv_export(self, tmp_path):
        table = ComparisonResult(title="t", columns=["a", "b"])
        table.add_row(1, 2.0)
        path = save_comparison_csv(table, tmp_path / "cmp.csv")
        lines = path.read_text().strip().splitlines()
        assert lines == ["a,b", "1,2.0"]


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "fedavg"])
        assert args.system == "fedavg"
        assert args.num_clients == 12
        assert args.num_rounds == 8

    def test_run_blockchain(self, capsys):
        code = main(["run", "blockchain", "--clients", "8", "--rounds", "2", "--samples", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== blockchain ==" in out
        assert "avg delay" in out

    def test_run_fairbfl_with_export(self, tmp_path, capsys):
        export = tmp_path / "series.csv"
        code = main(
            [
                "run",
                "fairbfl",
                "--clients", "6",
                "--rounds", "2",
                "--samples", "400",
                "--participation", "0.5",
                "--export", str(export),
            ]
        )
        assert code == 0
        assert export.exists()
        out = capsys.readouterr().out
        assert "== fairbfl ==" in out

    def test_run_fedavg(self, capsys):
        code = main(["run", "fedavg", "--clients", "6", "--rounds", "2", "--samples", "400"])
        assert code == 0
        assert "fedavg" in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        export = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--clients", "6",
                "--rounds", "2",
                "--samples", "400",
                "--export", str(export),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "System comparison" in out
        assert export.exists()
        header = export.read_text().splitlines()[0]
        assert header == "system,avg_delay_s,avg_accuracy,final_accuracy"


def _closed_port_url() -> str:
    """A localhost URL nothing listens on (bind an ephemeral port, then release it)."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


BAD_RUN = ["run", "fedavg", "--round-mode", "async"]  # fedavg has no round-mode capability
BAD_FILE = "bad.toml"  # written by the test: an unknown scenario field
GOOD_FILE = "good.toml"


class TestExitCodePolicy:
    """One boundary in ``main``: the user's mistake is 2, the server's failure is 1."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # ScenarioError -> 2, from every subcommand that validates a scenario.
            (BAD_RUN, 2, "round_mode"),
            ([*BAD_RUN, "--server", "DEAD"], 2, "round_mode"),  # refused before any request
            (["compare", "--defense", "bogus"], 2, "bogus"),
            (["sweep", "--scenario", BAD_FILE, "--no-cache"], 2, "no_such_field"),
            (["sweep", "--scenario", BAD_FILE, "--server", "DEAD"], 2, "no_such_field"),
            (["search", "--scenario", BAD_FILE, "--no-cache"], 2, "no_such_field"),
            # ServeClientError -> 1, from both thin clients.
            (["run", "fedavg", "--server", "DEAD"], 1, "cannot reach experiment server"),
            (["sweep", "--scenario", GOOD_FILE, "--server", "DEAD"], 1, "cannot reach"),
            # A plugin that cannot load is the user's to fix.
            (["--plugins", "no_such_plugin_module_xyz", "run", "fedavg"], 2, "no_such_plugin"),
            # Nothing to report is a failure, not a usage error.
            (["report", "--store", "EMPTY"], 1, "no stored runs"),
        ],
    )
    def test_exit_code_and_message(self, tmp_path, capsys, argv, code, message):
        (tmp_path / BAD_FILE).write_text('system = "fedavg"\nno_such_field = 1\n')
        (tmp_path / GOOD_FILE).write_text('system = "fedavg"\nnum_rounds = 1\n')
        substitutions = {
            "DEAD": _closed_port_url(),
            "EMPTY": str(tmp_path / "empty-store"),
            BAD_FILE: str(tmp_path / BAD_FILE),
            GOOD_FILE: str(tmp_path / GOOD_FILE),
        }
        assert main([substitutions.get(arg, arg) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("removed", ["thread", "process"])
    def test_a_removed_backend_is_a_usage_error(self, tmp_path, capsys, removed):
        # From a flag, argparse refuses the choice; from a scenario file, the
        # spec's validation does.  Both are the user's to fix: exit 2.
        with pytest.raises(SystemExit) as info:
            main(["run", "fedavg", "--backend", removed])
        assert info.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err

        scenario = tmp_path / "removed.toml"
        scenario.write_text(f'system = "fedavg"\nnum_rounds = 1\nbackend = "{removed}"\n')
        assert main(["sweep", "--scenario", str(scenario), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "serial, cohort" in captured.err
        assert captured.out == ""
