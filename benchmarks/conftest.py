"""Shared infrastructure for the benchmark harness.

Every bench module regenerates one table or figure of the paper at laptop
scale: it runs the experiment, prints the rows/series the paper reports (and
writes them to ``benchmarks/results/``), and registers a pytest-benchmark
measurement for the core computation so the harness also tracks runtime.

Scale note: the paper's configuration (n=100 clients, 100 communication
rounds, 10 000 synthetic samples) is about 11 s of compute for one run
(measured, docs/benchmarks.md), not hours; the benches still run the same
experiment *shapes* at a reduced scale (documented per bench) so the whole
catalogue of sweeps stays minutes.  The qualitative conclusions -- orderings,
crossovers, trends -- are what is being reproduced.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.results import ComparisonResult  # noqa: E402
from repro.runner.engine import ExperimentEngine  # noqa: E402
from repro.store.keys import spec_key  # noqa: E402
from repro.store.records import write_json_record  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_configure(config) -> None:
    """Register the benchmark-local markers (pytest has no ini file here)."""
    config.addinivalue_line(
        "markers",
        "smoke: fast structural subset of a bench (run with -m smoke to keep CI quick)",
    )


def pytest_collect_file(file_path: Path, parent):
    """Collect ``bench_*.py`` modules during directory collection.

    Pytest's default ``python_files`` pattern only auto-collects
    ``test_*.py``, so historically the benches only ran when named explicitly
    on the command line.  This hook pulls them into directory-level collection
    too — which is what lets the plain tier-1 run (``pytest -x -q``) and
    ``pytest benchmarks -m smoke`` exercise every bench's smoke subset.
    Explicitly named files are left to the built-in python plugin (it
    collects init paths regardless of pattern); returning a second module for
    them would duplicate every test.
    """
    if file_path.name.startswith("bench_") and file_path.suffix == ".py":
        if parent.session.isinitpath(file_path):
            return None
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def pytest_collection_modifyitems(config, items) -> None:
    """Keep directory-level runs on the smoke tier.

    Full bench tests (everything in a ``bench_*.py`` without the ``smoke``
    marker) run only when their file is named explicitly on the command line
    or ``REPRO_FULL_BENCH=1`` is set; otherwise they are skipped, so the
    tier-1 suite gains the fast smoke coverage without inheriting the
    multi-minute full benchmarks.
    """
    if os.environ.get("REPRO_FULL_BENCH"):
        return
    skip_full = pytest.mark.skip(
        reason=(
            "full bench: run its file explicitly "
            "(pytest benchmarks/bench_<name>.py) or set REPRO_FULL_BENCH=1"
        )
    )
    for item in items:
        if not item.path.name.startswith("bench_"):
            continue
        if item.get_closest_marker("smoke") is not None:
            continue
        if item.session.isinitpath(item.path):
            continue
        item.add_marker(skip_full)


def visible_cpus() -> int:
    """CPUs visible to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def emit(table: ComparisonResult, filename: str) -> None:
    """Print a reproduction table and persist it under benchmarks/results/."""
    text = table.to_text()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(text + "\n", encoding="utf-8")


def emit_json(
    name: str,
    *,
    config: dict,
    measurements: list[dict],
    notes: list[str] | None = None,
    specs=(),
) -> Path:
    """Persist a machine-readable benchmark record as ``benchmarks/results/BENCH_<name>.json``.

    The record is written through the run store's versioned serialiser
    (:func:`repro.store.records.write_json_record`), so every ``BENCH_*.json``
    carries the shared ``schema_version`` stamp: ``config`` captures the
    workload knobs, each entry of ``measurements`` pairs a label with its
    wall-clock seconds and (where meaningful) the simulated per-round delay,
    and environment facts that affect wall-clock (python version, CPU count
    visible to the process) ride along.  Pass the bench's ``ScenarioSpec``
    objects as ``specs`` to record their content addresses
    (:func:`repro.store.keys.spec_key`) under ``spec_keys`` — the hash that
    links a benchmark row to the run store's cached cell for the same
    scenario.
    """
    payload = {
        "benchmark": name,
        "config": config,
        "measurements": measurements,
        "notes": list(notes or []),
        "spec_keys": {spec.name: spec_key(spec) for spec in specs},
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": visible_cpus(),
        },
    }
    path = write_json_record(RESULTS_DIR / f"BENCH_{name}.json", payload, kind="benchmark")
    print(f"\nmachine-readable record written to {path}")
    return path


@pytest.fixture(scope="session")
def engine() -> ExperimentEngine:
    """One dataset-memoising engine shared by every bench in the session."""
    return ExperimentEngine()
