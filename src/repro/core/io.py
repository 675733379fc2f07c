"""Exporting run results.

Training histories and comparison tables can be exported to CSV so downstream
analysis (plotting, statistics) does not need to re-run the simulation; the
full-fidelity JSON form of a history is :mod:`repro.store.records`.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.core.results import ComparisonResult
from repro.fl.history import TrainingHistory

__all__ = ["save_history_csv", "save_comparison_csv"]

def save_history_csv(history: TrainingHistory, path: str | Path) -> Path:
    """Write the per-round scalar series of a history to a CSV file."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["round_index", "delay", "accuracy", "train_loss", "elapsed_time"])
        for record in history.rounds:
            writer.writerow(
                [record.round_index, record.delay, record.accuracy, record.train_loss, record.elapsed_time]
            )
    return path


def save_comparison_csv(table: ComparisonResult, path: str | Path) -> Path:
    """Write a :class:`~repro.core.results.ComparisonResult` to a CSV file."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        writer.writerows(table.rows)
    return path
