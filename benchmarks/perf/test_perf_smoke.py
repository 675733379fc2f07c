"""Tier-1 smoke test of the repo benchmark.

Runs every workload at ``--scale smoke`` through the command
``BENCHMARK.json`` declares and holds the emitted names to the declaration:
no missing metric, no undeclared one.  Also pins the behaviours later issues
lean on: a failed output check exits non-zero, the span guard is loud, the
result file carries its fingerprint, and ``--compare`` flags a regression.
Nothing here asserts a timing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))

import perf_spans  # noqa: E402
import perf_workloads  # noqa: E402
import run  # noqa: E402

DECLARED = run.declaration()
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = {kind["name"]: kind["unit"] for kind in DECLARED["end_to_end"]}
PER_LAYER = {kind["name"]: kind["unit"] for kind in DECLARED["per_layer"]}


def _measure(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable if part == "python3" else part for part in DECLARED["command"]
    ]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_declaration_matches_the_code():
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert WORKLOADS == list(perf_workloads.WORKLOADS)
    assert "setup_s" in END_TO_END
    assert set(perf_spans.REQUIRED) == set(perf_spans.FORBIDDEN) == set(WORKLOADS)
    assert all(0 < kind["bound"] <= 0.25 for kind in DECLARED["end_to_end"])


def test_every_workload_emits_exactly_the_declared_metrics():
    jobs = [(workload, trace) for trace in (0, 1) for workload in WORKLOADS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        children = list(pool.map(lambda job: _measure(*job), jobs))
    for (workload, trace), child in zip(jobs, children):
        context = f"{workload} --trace {trace}\n{child.stdout}\n{child.stderr}"
        assert child.returncode == 0, context
        result = json.loads(child.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, context
        assert result["correct"] is True and result["failed"] == 0, context
        assert result["attempted"] >= 1, context
        emitted = {name: row["unit"] for name, row in result["metrics"].items()}
        assert emitted == (PER_LAYER if trace else END_TO_END), context
        if not trace:
            assert all(row["value"] > 0 for row in result["metrics"].values()), context
    assert (PERF / "results" / "trace_sweep_serve.json").exists()


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    for pin in run.BLAS_PINS:  # measure() sets them; let monkeypatch undo that
        monkeypatch.setenv(pin, "1")
    monkeypatch.setattr(perf_workloads, "BLOCKS_PER_ROUND", 2)
    code = run.main(["--workload", "fig4_sync", "--seconds", "0", "--scale", "smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK FAILED [fig4_sync]: chain height 3" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_no_result_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own directory: there is nothing
    # to measure, and the command must say so with its exit code.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    child = _measure("fig4_sync", 0, cwd=tmp_path)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_span_guard_is_loud():
    tracer = perf_spans.Tracer()
    with pytest.raises(perf_spans.SpanTargetError, match="no_such_callable"):
        tracer.install((("core.gone", "repro.core.fairbfl:no_such_callable", None),))
    with pytest.raises(perf_spans.SpanTargetError, match="not a callable defined there"):
        # Inherited, not defined on the subclass: wrapping it there would shadow the base.
        tracer.install((("x", "repro.systems.builtin:FairBFLDiscardSystem.build", None),))
    tracer.spans.append(("net.begin_round", None, 0, 1.0, 0.0))
    problems = tracer.check("fig4_sync")
    assert "forbidden span 'net.begin_round' fired on fig4_sync" in problems
    assert "required span 'crypto.verify' never fired on fig4_sync" in problems


def test_whole_benchmark_mode_and_compare(tmp_path, capsys):
    first = tmp_path / "a.json"
    child = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "fig4_sync", "--repeats", "2",
         "--scale", "smoke", "--trace", "--out", str(first)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    result = json.loads(first.read_text(encoding="utf-8"))
    assert {
        "git_sha", "python", "numpy", "blas_thread_pins", "visible_cpus",
        "loadavg_1m_start", "loadavg_1m_end", "seed", "repeats", "scale",
    } <= set(result["fingerprint"])
    assert isinstance(result["noisy"], bool) and result["failures"] == []
    entry = result["workloads"]["fig4_sync"]
    assert set(entry["end_to_end"]) == set(END_TO_END)
    assert len(entry["end_to_end"]["wall_s"]["values"]) == 2
    assert set(entry["per_layer"]) == set(PER_LAYER)
    assert "trace_overhead_pct" in entry

    # Collapse the ranges so the verdicts below do not depend on smoke-scale noise.
    for row in entry["end_to_end"].values():
        row["min"] = row["max"] = row["median"]
        row["values"] = [row["median"]] * 2
    first.write_text(json.dumps(result), encoding="utf-8")
    assert run.main(["--compare", str(first), str(first)]) == 0
    assert "regressed" not in capsys.readouterr().out.split("\n\n")[0]

    slower = copy.deepcopy(result)
    wall = slower["workloads"]["fig4_sync"]["end_to_end"]["wall_s"]
    wall["median"] = wall["min"] = wall["max"] = wall["median"] * 2.0
    wall["values"] = [wall["median"]] * 2
    second = tmp_path / "b.json"
    second.write_text(json.dumps(slower), encoding="utf-8")
    assert run.main(["--compare", str(first), str(second)]) == 1
    assert "wall_s" in next(
        line for line in capsys.readouterr().out.splitlines() if line.endswith("regressed")
    )
    assert run.main(["--compare", str(second), str(first)]) == 0  # improved, not regressed
