"""Tests for the FAIR-BFL core: flexibility, convergence, procedures, results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion, theorem31_bound, theorem31_constants
from repro.core.flexibility import OperatingMode, Procedure, procedures_for_mode
from repro.core.results import ComparisonResult, summarize_history
from repro.fl.history import RoundRecord, TrainingHistory


class TestFlexibility:
    def test_bfl_mode_runs_all_five(self):
        procs = procedures_for_mode(OperatingMode.BFL)
        assert len(procs) == 5
        assert procs[0] is Procedure.LOCAL_UPDATE
        assert procs[-1] is Procedure.MINING

    def test_fl_only_drops_exchange_and_mining(self):
        procs = procedures_for_mode(OperatingMode.FL_ONLY)
        assert Procedure.EXCHANGE not in procs
        assert Procedure.MINING not in procs
        assert Procedure.LOCAL_UPDATE in procs
        assert Procedure.GLOBAL_UPDATE in procs

    def test_chain_only_drops_learning_and_aggregation(self):
        procs = procedures_for_mode(OperatingMode.CHAIN_ONLY)
        assert Procedure.LOCAL_UPDATE not in procs
        assert Procedure.GLOBAL_UPDATE not in procs
        assert Procedure.MINING in procs

    def test_parse_from_string(self):
        assert OperatingMode.parse("bfl") is OperatingMode.BFL
        assert OperatingMode.parse("FL_ONLY") is OperatingMode.FL_ONLY
        assert OperatingMode.parse(OperatingMode.CHAIN_ONLY) is OperatingMode.CHAIN_ONLY

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown operating mode"):
            OperatingMode.parse("hybrid")


class TestConvergenceCriterion:
    def test_detects_plateau(self):
        acc = [0.1, 0.3, 0.5, 0.7, 0.701, 0.702, 0.701, 0.702, 0.703]
        criterion = ConvergenceCriterion()
        idx = criterion.converged_at(acc)
        assert idx == 8
        assert criterion.has_converged(acc)

    def test_no_convergence_on_rising_series(self):
        acc = np.linspace(0.0, 1.0, 20)
        assert not ConvergenceCriterion().has_converged(acc)

    def test_short_series_never_converged(self):
        assert ConvergenceCriterion().converged_at([0.5, 0.5]) is None


class TestTheorem31:
    def test_constants(self):
        consts = theorem31_constants(
            smoothness=4.0, strong_convexity=0.5, gradient_bound=1.0,
            local_epochs=5, num_selected=10,
        )
        assert consts["kappa"] == pytest.approx(8.0)
        assert consts["gamma"] == pytest.approx(64.0)
        assert consts["C"] == pytest.approx(4.0 / 10 * 25)

    def test_bound_decreases_with_rounds(self):
        consts = theorem31_constants(
            smoothness=4.0, strong_convexity=0.5, gradient_bound=1.0,
            local_epochs=5, num_selected=10,
        )
        values = [
            theorem31_bound(r, constants=consts, initial_distance_sq=4.0) for r in (1, 10, 100, 1000)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_bound_scales_with_initial_distance(self):
        consts = theorem31_constants(
            smoothness=2.0, strong_convexity=1.0, gradient_bound=1.0,
            local_epochs=2, num_selected=4,
        )
        near = theorem31_bound(5, constants=consts, initial_distance_sq=0.1)
        far = theorem31_bound(5, constants=consts, initial_distance_sq=10.0)
        assert far > near

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem31_constants(
                smoothness=1.0, strong_convexity=2.0, gradient_bound=1.0,
                local_epochs=1, num_selected=1,
            )
        consts = theorem31_constants(
            smoothness=2.0, strong_convexity=1.0, gradient_bound=1.0,
            local_epochs=1, num_selected=1,
        )
        with pytest.raises(ValueError):
            theorem31_bound(0, constants=consts, initial_distance_sq=1.0)
        with pytest.raises(ValueError):
            theorem31_bound(1, constants=consts, initial_distance_sq=-1.0)

    def test_sgd_on_quadratic_respects_bound(self):
        """Empirical check: local SGD on a strongly convex quadratic stays under the bound."""
        rng = np.random.default_rng(0)
        dim, num_clients, local_epochs, num_selected = 5, 8, 2, 8
        mu, L, G = 1.0, 4.0, 5.0
        # Per-client quadratic objectives F_i(w) = 0.5 * (w - c_i)^T A (w - c_i).
        eigs = np.linspace(mu, L, dim)
        A = np.diag(eigs)
        centers = rng.normal(scale=0.5, size=(num_clients, dim))
        w_star = centers.mean(axis=0)
        f_star = float(
            np.mean([0.5 * (w_star - c) @ A @ (w_star - c) for c in centers])
        )
        consts = theorem31_constants(
            smoothness=L, strong_convexity=mu, gradient_bound=G,
            local_epochs=local_epochs, num_selected=num_selected,
        )
        w = np.full(dim, 2.0)
        init_dist = float(np.sum((w - w_star) ** 2))
        for r in range(1, 30):
            lr = 2.0 / (mu * (consts["gamma"] + r))
            locals_w = []
            for c in centers:
                wi = w.copy()
                for _ in range(local_epochs):
                    wi -= lr * (A @ (wi - c))
                locals_w.append(wi)
            w = np.mean(locals_w, axis=0)
            f_val = float(np.mean([0.5 * (w - c) @ A @ (w - c) for c in centers]))
            bound = theorem31_bound(r, constants=consts, initial_distance_sq=init_dist)
            assert f_val - f_star <= bound + 1e-6


class TestResults:
    def _history(self):
        hist = TrainingHistory(label="demo")
        for i in range(6):
            hist.append(
                RoundRecord(
                    round_index=i, delay=2.0, accuracy=min(0.9, 0.2 * i),
                    elapsed_time=2.0 * (i + 1),
                )
            )
        return hist

    def test_summarize_history(self):
        summary = summarize_history(self._history())
        assert summary["label"] == "demo"
        assert summary["rounds"] == 6
        assert summary["average_delay"] == pytest.approx(2.0)
        assert summary["total_time"] == pytest.approx(12.0)
        assert 0.0 <= summary["average_accuracy"] <= 1.0

    def test_comparison_result_rows_and_columns(self):
        table = ComparisonResult(title="t", columns=["x", "fair", "fedavg"])
        table.add_row(1, 0.5, 0.6)
        table.add_row(2, 0.7, 0.8)
        assert table.column("fair") == [0.5, 0.7]
        with pytest.raises(KeyError):
            table.column("missing")
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_comparison_result_text_render(self):
        table = ComparisonResult(title="Figure X", columns=["n", "delay"])
        table.add_row(10, 1.23456)
        table.notes.append("calibrated")
        text = table.to_text()
        assert "Figure X" in text
        assert "1.2346" in text
        assert "note: calibrated" in text
