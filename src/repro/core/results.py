"""Result containers and summaries shared by examples and benchmarks.

The benchmark harness regenerates each paper figure as a table of rows
(one per x-axis point and system); :class:`ComparisonResult` is the common
container for those tables and knows how to render itself as aligned text, so
every bench target prints "the same rows/series the paper reports".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.fl.history import TrainingHistory

__all__ = ["summarize_history", "format_cell", "ComparisonResult", "SUMMARY_COLUMNS", "summary_table"]

#: Columns of the run-summary table, in order (``repro report`` appends ``key``).
SUMMARY_COLUMNS = ("scenario", "system", "rounds", "avg_delay_s", "avg_accuracy", "final_accuracy")


def summarize_history(history: TrainingHistory) -> dict:
    """One-line summary of a run: delays, accuracies, convergence round/time."""
    acc = history.accuracies
    converged_round = ConvergenceCriterion().converged_at(acc) if acc.size else None
    converged_time = (
        float(history.elapsed_times[converged_round])
        if converged_round is not None and converged_round < len(history)
        else None
    )
    return {
        "label": history.label,
        "rounds": len(history),
        "average_delay": history.average_delay(),
        "average_accuracy": history.average_accuracy(),
        "final_accuracy": history.final_accuracy(),
        "total_time": float(history.elapsed_times[-1]) if len(history) else 0.0,
        "converged_round": converged_round,
        "converged_time": converged_time,
    }


def format_cell(value: object) -> str:
    """How every rendering of a table (text, Markdown) prints one cell."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.4f}"
    return str(value)


@dataclass
class ComparisonResult:
    """A figure/table reproduction: named columns, one row per data point.

    Attributes
    ----------
    title:
        Human-readable experiment title (e.g. ``"Figure 4a -- average delay"``).
    columns:
        Ordered column names.
    rows:
        One list per row, aligned with ``columns``.
    notes:
        Free-form commentary (calibration caveats, expected orderings).
    """

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row; the number of values must match the columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values per row, got {len(values)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        """All values of the named column."""
        try:
            idx = self.columns.index(name)
        except ValueError as exc:
            raise KeyError(f"no column named {name!r}; have {self.columns}") from exc
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned plain-text table (what the bench targets print)."""
        header = [self.title, "=" * len(self.title)]
        str_rows = [[format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in str_rows)) if str_rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        header.append("  ".join(col.ljust(w) for col, w in zip(self.columns, widths)))
        header.append("  ".join("-" * w for w in widths))
        body = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in str_rows]
        footer = [f"note: {n}" for n in self.notes]
        return "\n".join(header + body + footer)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def summary_table(title: str, runs, columns=SUMMARY_COLUMNS) -> ComparisonResult:
    """The one run-summary table: a row per run, projected onto ``columns``.

    ``runs`` are executed or stored runs — anything with ``.spec`` and the
    :func:`summarize_history` dict as ``.summary``
    (:class:`~repro.runner.engine.ScenarioResult`,
    :class:`~repro.store.runstore.StoredRun`).  A local sweep, a ``--server``
    sweep, ``compare`` (no scenario/rounds columns) and ``report`` (a ``key``
    column: the first 12 hex digits of ``run.key``, enough to locate the
    record file) all print this table, so their cells cannot drift apart.
    """
    table = ComparisonResult(title=title, columns=list(columns))
    for run in runs:
        summary = run.summary
        cells = {
            "scenario": run.spec.name,
            "system": run.spec.system,
            "rounds": summary["rounds"],
            "avg_delay_s": summary["average_delay"],
            "avg_accuracy": summary["average_accuracy"],
            "final_accuracy": summary["final_accuracy"],
            "key": getattr(run, "key", "")[:12],  # only stored runs have one
        }
        table.add_row(*(cells[column] for column in columns))
    return table
