"""Tests for the ASHA successive-halving search (`repro.search`, `repro search`).

The scheduler's claims under test:

* **rung math** — the fidelity ladder grows by ``eta`` from
  ``ceil(R/eta²)`` (or an explicit ``min_rounds``) and always ends exactly at
  ``R``; invalid parameters are :class:`ScenarioError`\\ s, not surprises;
* **capability validation** — accuracy-based promotion metrics are rejected
  up front for systems registered with ``needs_dataset=False`` (the vanilla
  blockchain), with the universal ``delay`` metric as the suggested fix;
* **determinism and resumability** — the same cohort searched twice produces
  the same leaderboard; a search killed mid-flight and re-run against the
  same store finishes bit-identically while recomputing nothing it already
  has (the engine counters make that assertable);
* **budget accounting** — ``round_evaluations`` counts only computed rounds
  (resumed prefixes and cache hits are free) against the
  ``len(cohort)·R`` exhaustive-grid figure;
* **CLI surface** — ``repro search`` drives the same path, prints the rung
  trace, leaderboard, budget line, and engine counters, and honours
  ``--metric``/``--no-cache``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.cli import main
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.search import PROMOTION_METRICS, run_search
from repro.search.asha import check_metric_supported, resolve_metric, rung_schedule
from repro.store.runstore import RunStore

SMALL = dict(system="fairbfl", num_clients=6, num_samples=240, num_rounds=6, seed=3)


def cohort(*lrs: float) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(**{**SMALL, "name": f"lr{i}", "learning_rate": lr})
        for i, lr in enumerate(lrs)
    ]


class TestRungSchedule:
    def test_default_ladder_is_three_rungs(self):
        assert rung_schedule(9, eta=3) == (1, 3, 9)
        assert rung_schedule(27, eta=3) == (3, 9, 27)

    def test_final_rung_is_exactly_max_rounds(self):
        assert rung_schedule(10, eta=3)[-1] == 10
        assert rung_schedule(7, eta=2, min_rounds=3)[-1] == 7

    def test_explicit_min_rounds(self):
        assert rung_schedule(8, eta=2, min_rounds=2) == (2, 4, 8)

    def test_min_rounds_equal_to_max_is_one_rung(self):
        assert rung_schedule(5, eta=3, min_rounds=5) == (5,)

    @pytest.mark.parametrize(
        "kwargs", [dict(eta=1), dict(min_rounds=0), dict(min_rounds=11)]
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ScenarioError):
            rung_schedule(10, **kwargs)

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ScenarioError, match="positive"):
            rung_schedule(0)


class TestMetricValidation:
    def test_known_metrics_resolve(self):
        for name in PROMOTION_METRICS:
            assert resolve_metric(name).name == name

    def test_unknown_metric_raises(self):
        with pytest.raises(ScenarioError, match="unknown promotion metric"):
            resolve_metric("bogus")

    def test_accuracy_metric_rejected_for_blockchain(self):
        spec = ScenarioSpec(system="blockchain", num_rounds=4)
        with pytest.raises(ScenarioError, match="needs_dataset=False"):
            check_metric_supported(resolve_metric("final_accuracy"), spec)

    def test_rejection_suggests_delay_metric(self):
        spec = ScenarioSpec(system="blockchain", num_rounds=4)
        with pytest.raises(ScenarioError, match="metric='delay'"):
            run_search([spec], engine=ExperimentEngine(), metric="avg_accuracy")

    def test_delay_metric_searches_blockchain(self):
        specs = [
            ScenarioSpec(system="blockchain", name=f"m{m}", miners=m, num_rounds=4, seed=1)
            for m in (2, 3)
        ]
        result = run_search(specs, engine=ExperimentEngine(), metric="delay", eta=2, min_rounds=2)
        assert result.mode == "min"
        assert result.best.name in {"m2", "m3"}

    def test_duplicate_trial_names_raise(self):
        spec = ScenarioSpec(**{**SMALL, "name": "dup"})
        with pytest.raises(ScenarioError, match="unique"):
            run_search([spec, spec], engine=ExperimentEngine())

    def test_empty_cohort_raises(self):
        with pytest.raises(ScenarioError, match="at least one"):
            run_search([], engine=ExperimentEngine())


class TestSearchSemantics:
    def test_halving_keeps_top_fraction_per_rung(self, tmp_path):
        trials = cohort(0.2, 0.1, 0.05, 0.01)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        result = run_search(trials, engine=engine, eta=2, min_rounds=2)
        assert result.rungs == (2, 4, 6)
        assert [len(r.trials) for r in result.rung_results] == [4, 2, 1]
        assert len(result.rung_results[0].promoted) == 2
        assert result.rung_results[-1].promoted == ()
        assert result.best is result.leaderboard[0]

    def test_search_spends_less_than_the_grid(self, tmp_path):
        trials = cohort(0.2, 0.1, 0.05, 0.01)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        result = run_search(trials, engine=engine, eta=2, min_rounds=2)
        assert result.grid_round_evaluations == 4 * 6
        # 4 trials x 2 rounds + 2 promotions x 2 new rounds + 1 x 2 new rounds.
        assert result.round_evaluations == 14
        assert result.evaluation_fraction < 1.0

    def test_same_cohort_same_leaderboard(self, tmp_path):
        trials = cohort(0.2, 0.1, 0.05)
        first = run_search(
            trials,
            engine=ExperimentEngine(store=RunStore(tmp_path / "a"), reuse_cached=True),
            eta=2,
            min_rounds=2,
        )
        second = run_search(
            trials,
            engine=ExperimentEngine(store=RunStore(tmp_path / "b"), reuse_cached=True),
            eta=2,
            min_rounds=2,
        )
        assert [dataclasses.astuple(t) for t in first.leaderboard] == [
            dataclasses.astuple(t) for t in second.leaderboard
        ]

    def test_interrupted_search_resumes_bit_identically(self, tmp_path):
        trials = cohort(0.2, 0.1, 0.05, 0.01)
        reference = run_search(
            trials,
            engine=ExperimentEngine(store=RunStore(tmp_path / "ref"), reuse_cached=True),
            eta=2,
            min_rounds=2,
        )
        # "Kill" a search after the first rung: only the rung-0 records exist.
        store = RunStore(tmp_path / "killed")
        engine = ExperimentEngine(store=store, reuse_cached=True)
        for spec in trials:
            engine.run_partial(spec, 2)
        killed_evals = engine.round_evaluations
        # Re-running the whole search against the same store serves rung 0
        # from cache and computes only the promotions.
        resumed = run_search(trials, engine=engine, eta=2, min_rounds=2)
        assert resumed.cache_hits == len(trials)
        assert resumed.round_evaluations == reference.round_evaluations - killed_evals
        assert [dataclasses.astuple(t) for t in resumed.leaderboard] == [
            dataclasses.astuple(t) for t in reference.leaderboard
        ]

    def test_completed_search_rerun_computes_nothing(self, tmp_path):
        trials = cohort(0.2, 0.05)
        engine = ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True)
        first = run_search(trials, engine=engine, eta=2, min_rounds=3)
        again = run_search(trials, engine=engine, eta=2, min_rounds=3)
        assert again.runs_computed == 0
        assert again.round_evaluations == 0
        assert [t.score for t in again.leaderboard] == [t.score for t in first.leaderboard]

    def test_rungs_shared_with_plain_sweeps(self, tmp_path):
        # A sweep that already ran the 6-round cells makes the search's final
        # rung free — fidelity is part of the ordinary content key.
        trials = cohort(0.2, 0.05)
        store = RunStore(tmp_path)
        sweep_engine = ExperimentEngine(store=store, reuse_cached=True)
        for spec in trials:
            sweep_engine.run(spec)
        engine = ExperimentEngine(store=store, reuse_cached=True)
        result = run_search(trials, engine=engine, eta=2, min_rounds=3)
        final = result.rung_results[-1]
        assert final.rounds == 6 and len(final.trials) == 1
        assert result.cache_hits >= 1  # the final rung came from the sweep's record

    def test_api_facade_accepts_spec_lists_and_overrides(self, tmp_path):
        result = api.search(
            cohort(0.2, 0.05),
            engine=ExperimentEngine(store=RunStore(tmp_path), reuse_cached=True),
            eta=2,
            min_rounds=3,
        )
        assert isinstance(result, api.SearchResult)
        assert result.best.name in {"lr0", "lr1"}


def _search_file(tmp_path, rounds: int = 6) -> str:
    path = tmp_path / "search.json"
    path.write_text(
        json.dumps(
            {
                "name": "grid",
                "base": {**SMALL, "num_rounds": rounds},
                "matrix": {"learning_rate": [0.2, 0.05, 0.01]},
            }
        ),
        encoding="utf-8",
    )
    return str(path)


class TestSearchCli:
    def test_search_verb_prints_rungs_leaderboard_and_budget(self, tmp_path, capsys):
        code = main(
            [
                "search",
                "--scenario",
                _search_file(tmp_path),
                "--eta",
                "2",
                "--min-rounds",
                "2",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ASHA search: metric final_accuracy (max), eta 2, rungs 2 -> 4 -> 6" in out
        assert "Search leaderboard" in out
        assert "best: grid[learning_rate=" in out
        assert "round-evaluations vs 18 exhaustive grid" in out
        assert "run store" in out and "round-evaluations simulated" in out

    def test_search_verb_second_run_is_fully_cached(self, tmp_path, capsys):
        argv = [
            "search",
            "--scenario",
            _search_file(tmp_path),
            "--eta",
            "2",
            "--min-rounds",
            "2",
            "--store",
            str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second
        assert "search budget: 0 round-evaluations" in second
        # Identical leaderboard both times (budget lines legitimately differ).
        table = lambda out: out.split("Search leaderboard")[1].split("search budget:")[0]
        assert table(first) == table(second)

    def test_no_cache_skips_the_store(self, tmp_path, capsys):
        code = main(
            [
                "search",
                "--scenario",
                _search_file(tmp_path),
                "--eta",
                "2",
                "--min-rounds",
                "2",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run store" not in out

    def test_metric_mismatch_is_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "bc.json"
        path.write_text(
            json.dumps({"system": "blockchain", "name": "bc", "num_rounds": 4}),
            encoding="utf-8",
        )
        code = main(
            ["search", "--scenario", str(path), "--metric", "final_accuracy", "--no-cache"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "needs_dataset=False" in captured.err

    def test_export_writes_leaderboard_csv(self, tmp_path):
        out_csv = tmp_path / "leaderboard.csv"
        code = main(
            [
                "search",
                "--scenario",
                _search_file(tmp_path),
                "--eta",
                "2",
                "--min-rounds",
                "2",
                "--store",
                str(tmp_path / "store"),
                "--export",
                str(out_csv),
            ]
        )
        assert code == 0
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header.split(",")[:3] == ["rank", "scenario", "system"]
