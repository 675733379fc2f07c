"""Reporting over stored runs: the paper-style tables without re-running.

``repro report`` (and :func:`repro.api.report`) tabulate a
:class:`~repro.store.runstore.RunStore` into the same summary columns the
figure benchmarks print — scenario, system, rounds, average delay, average
and final accuracy — plus the short content key that ties each row back to
its record file.  The table renders as aligned text (the CLI default), as a
GitHub-flavoured Markdown table (:func:`to_markdown`), or as CSV through the
existing :func:`repro.core.io.save_comparison_csv`, replacing the ad-hoc
reading of ``benchmarks/results`` text files.  ``docs/results.md`` walks
through the sweep → store → report pipeline end to end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.core.results import SUMMARY_COLUMNS, ComparisonResult, format_cell, summary_table
from repro.store.runstore import RunStore, StoredRun

__all__ = ["report_table", "save_markdown"]

#: Columns of the stored-run summary table: the shared summary plus the content key.
REPORT_COLUMNS = (*SUMMARY_COLUMNS, "key")


def report_table(
    runs: "RunStore | Iterable[StoredRun]",
    *,
    systems: Sequence[str] | None = None,
    title: str | None = None,
) -> ComparisonResult:
    """Summarise stored runs as a :class:`ComparisonResult`.

    ``runs`` is a :class:`RunStore` (all loadable records) or an iterable of
    :class:`StoredRun`; ``systems`` optionally restricts to those system
    names.  Rows are sorted by (system, scenario name) and each carries the
    first 12 hex digits of its content key, enough to locate the record file
    under the store root.
    """
    entries = list(runs.runs()) if isinstance(runs, RunStore) else list(runs)
    if systems is not None:
        wanted = set(systems)
        entries = [run for run in entries if run.result.system in wanted]
    if title is None:
        title = f"Stored runs ({len(entries)} record{'s' if len(entries) != 1 else ''})"
    return summary_table(title, entries, REPORT_COLUMNS)


def to_markdown(table: ComparisonResult) -> str:
    """Render a :class:`ComparisonResult` as a GitHub-flavoured Markdown table.

    Pipes inside cell values are escaped — bench-style scenario names such
    as ``matrix[sign_flip|krum]`` must not split their cell.
    """
    lines = [f"# {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("| " + " | ".join("---" for _ in table.columns) + " |")
    for row in table.rows:
        lines.append("| " + " | ".join(format_cell(v).replace("|", "\\|") for v in row) + " |")
    if table.notes:
        lines.append("")
        lines.extend(f"- {note}" for note in table.notes)
    return "\n".join(lines) + "\n"


def save_markdown(table: ComparisonResult, path: str | Path) -> Path:
    """Write the Markdown rendering of ``table`` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(to_markdown(table), encoding="utf-8")
    return path
