"""The repo benchmark: one command, every metric, every output check.

Two ways to run it (see ``README.md`` beside this file):

``python3 benchmarks/perf/run.py``
    The whole benchmark.  Every (workload, repeat) runs in a fresh child
    process, one at a time, repeats interleaved across workloads so a noisy
    minute cannot hit every repeat of one workload.  Prints every end-to-end
    metric as the median over repeats with min-max, cross-checks that history
    digests and simulated delays repeat exactly, writes
    ``benchmarks/perf/results/<stamp>.json`` and exits non-zero on a failed
    check.  ``--trace`` adds one traced pass per workload for the per-layer
    numbers; ``--compare A.json B.json`` judges two result files.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement of one workload — what each child above runs, and the
    command ``BENCHMARK.json`` declares.  The last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).

A workload is a fixed unit of work (so histories can be compared byte for
byte).  ``--seconds`` is the measuring budget: the unit is repeated, each time
on a freshly set-up system, while another repeat is predicted to fit, and
always runs once.  Reported values are medians over units, rounds and
set-ups, timed with ``perf_clock.clock`` (wall minus own kernel CPU seconds)
and read at the reference speed (each op divided by how much slower than
nominal a fixed calibration kernel ran right before and after it);
``perf_clock`` says why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
RESULTS = PERF / "results"

#: BLAS threads are pinned in every measuring process: with free threads the
#: 2-core box's fig4_sync wall spreads 16.7-24.3 s, pinned 17.1-18.3 s.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups timed per measurement (the last ones feed the timed units).
SETUP_REPEATS = 3


#: Per-layer metrics that must be non-zero in a traced run, beyond the span
#: guard in perf_spans (these come from counts, not spans).
REQUIRED_NONZERO = {
    "committee_adversarial": ("net.reorgs_n", "net.lost_uploads_n", "attacks.forged_n"),
    "cohort_population": ("fl.cohort_block_n",),
    "sweep_serve": ("runner.cache_hits_n", "store.put_bytes", "serve.polls_per_job"),
}


def declaration() -> dict:
    """``BENCHMARK.json``: the one place metric and workload names are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# One measurement of one workload (the BENCHMARK.json command).
# ---------------------------------------------------------------------------

def measure(args: argparse.Namespace, declared: dict) -> int:
    for pin in BLAS_PINS:  # before numpy loads
        os.environ[pin] = "1"
    src = ROOT / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from perf_clock import Calibrator, clock

    started = clock()
    import perf_spans
    import perf_workloads  # repro + numpy: what a user's own import costs

    import_s = clock() - started
    (name,) = args.workload
    workload = perf_workloads.make_workload(name, args.seed, args.scale)
    calibrator = Calibrator()
    tracer = perf_spans.Tracer() if args.trace else None
    setups: list[float] = []
    units = []
    # Imports ran before there was a calibrator; read them at its first sample.
    import_s /= calibrator.sample()

    def set_up():
        if tracer is not None:
            tracer.scope = "setup"
        gc.collect()  # the previous system's garbage is the benchmark's, not the user's
        speed = calibrator.sample()
        t0 = clock()
        state = workload.setup()
        seconds = clock() - t0
        slowdown = calibrator.bracket(speed)
        setups.append(seconds / slowdown)
        if tracer is not None:
            tracer.slowdown["setup"] = slowdown
        return state

    def run_unit(state) -> None:
        try:
            units.append(workload.run_unit(state, calibrator, tracer))
        finally:
            workload.teardown(state)

    def peak_rss_mib() -> float:
        return max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0

    if tracer is not None:
        # One set-up, one unit: per-layer sums and counts are then per unit.
        with tracer:
            run_unit(set_up())
        peak_rss = peak_rss_mib()
        problems = tracer.check(name)
    else:
        if args.scale == "full":  # smoke checks names, not times: one set-up does
            for _ in range(SETUP_REPEATS - 1):
                workload.teardown(set_up())
        budget_started = time.perf_counter()  # real time: it is what the budget bounds
        while True:
            run_unit(set_up())
            if len(units) == 1:
                # After the first unit, or the peak would grow with the number
                # of units the budget happened to fit.
                peak_rss = peak_rss_mib()
            elapsed = time.perf_counter() - budget_started
            if elapsed + elapsed / len(units) > args.seconds:
                break
        problems = []

    first = units[0]
    for unit in units:
        problems.extend(unit.failures)
        if (unit.digest, unit.sim_delay) != (first.digest, first.sim_delay):
            problems.append("history digest or simulated delay differs between units")
    op_s = [t for unit in units for t in unit.op_s]
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(u.wall_s for u in units),
            "peak_rss_mb": peak_rss,
            "round_p50_ms": statistics.median(op_s) * 1000.0 if op_s else float("nan"),
            "client_updates_per_s": statistics.median(
                u.client_updates / u.wall_s for u in units
            ),
        }
        kinds = declared["end_to_end"]
    else:
        values = perf_workloads.layer_metrics(first, tracer)
        kinds = declared["per_layer"]
        if not 0.95 <= values["trace.self_coverage"] <= 1.05:
            problems.append(
                f"span self times cover {values['trace.self_coverage']:.3f} of the "
                "timed section (expected within 5 %)"
            )
        for metric in REQUIRED_NONZERO.get(name, ()):
            if not values[metric]:
                problems.append(f"required per-layer metric {metric} is zero")
    units_by_name = {kind["name"]: kind["unit"] for kind in kinds}
    if set(units_by_name) != set(values):
        undeclared = sorted(set(values) - set(units_by_name))
        missing = sorted(set(units_by_name) - set(values))
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: undeclared {undeclared}, missing {missing}"
        )

    slowdown = {
        "min": min(calibrator.history),
        "median": statistics.median(calibrator.history),
        "max": max(calibrator.history),
        "samples": len(calibrator.history),
    }
    print(
        f"{name}: seed {args.seed}, scale {args.scale}, {len(units)} unit(s), "
        f"{len(op_s)} op sample(s), {len(setups)} set-up(s); times are read at the "
        f"reference speed — the box ran {slowdown['min']:.2f}x..{slowdown['max']:.2f}x "
        f"slower than it (median {slowdown['median']:.2f}x of {slowdown['samples']} samples)"
    )
    for metric in sorted(values):
        print(f"  {metric:32s} {values[metric]:16.6f} {units_by_name[metric]}")
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}")

    attempted = sum(u.ops_attempted for u in units)
    failed = sum(u.ops_failed for u in units)
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        rows = {str(scope): spans for scope, spans in tracer.by_scope().items()}
        (RESULTS / f"trace_{name}.json").write_text(
            json.dumps({
                "workload": name, "seed": args.seed, "slowdown": slowdown,
                "scopes": rows,
            }, indent=1) + "\n",
            encoding="utf-8",
        )
    if args.out:
        Path(args.out).write_text(
            json.dumps({
                "workload": name, "seed": args.seed, "scale": args.scale,
                "trace": args.trace, "values": values, "units": len(units),
                "op_samples": len(op_s), "slowdown": slowdown, "digest": first.digest,
                "sim_delay": first.sim_delay, "ops_attempted": attempted,
                "ops_failed": failed, "failures": problems,
            }) + "\n",
            encoding="utf-8",
        )
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units_by_name[metric]}
            for metric, value in values.items()
        },
    }))
    return 0 if not problems and failed == 0 else 1


# ---------------------------------------------------------------------------
# The whole benchmark: interleaved repeats in child processes.
# ---------------------------------------------------------------------------

def run_child(name: str, args: argparse.Namespace, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        out = Path(scratch) / "record.json"
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
             "--scale", args.scale, "--out", str(out)],
            stdout=subprocess.PIPE, text=True,  # the child pins BLAS itself
        )
        if not out.exists():
            sys.stdout.write(child.stdout)
            raise SystemExit(f"{name}: child exited {child.returncode} without a record")
        record = json.loads(out.read_text(encoding="utf-8"))
    for line in child.stdout.splitlines():
        if line.startswith("CHECK FAILED"):
            print(line)
    return record


def fingerprint(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy  # only for its version; this process measures nothing

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_thread_pins": {pin: "1" for pin in BLAS_PINS},
        "visible_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": args.seed,
        "repeats": args.repeats,
        "scale": args.scale,
    }


def orchestrate(args: argparse.Namespace, declared: dict) -> int:
    RESULTS.mkdir(exist_ok=True)
    names = args.workload or [w["name"] for w in declared["workloads"]]
    # Smoke scale exists to check names and plumbing: one unit, no budget.
    seconds = declared["run_seconds"] if args.scale == "full" else 0
    info = fingerprint(args)
    records: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:  # interleaved: A B C D, A B C D, ...
            print(f"[repeat {repeat + 1}/{args.repeats}] {name}", flush=True)
            records[name].append(run_child(name, args, seconds, trace=0))
    traced = {}
    if args.trace:
        for name in names:
            print(f"[traced] {name}", flush=True)
            traced[name] = run_child(name, args, seconds, trace=1)
    info["loadavg_1m_end"] = os.getloadavg()[0]
    noisy = max(info["loadavg_1m_start"], info["loadavg_1m_end"]) > info["visible_cpus"]

    failures: list[str] = []
    report: dict[str, dict] = {}
    kinds = {kind["name"]: kind for kind in declared["end_to_end"]}
    for name in names:
        runs = records[name]
        everything = runs + ([traced[name]] if name in traced else [])
        for run in everything:
            failures.extend(f"{name}: {problem}" for problem in run["failures"])
        if len({(run["digest"], run["sim_delay"]) for run in everything}) != 1:
            failures.append(
                f"{name}: history digest or simulated delay differs between repeats "
                "(or between the traced and untraced runs)"
            )
        end_to_end = {}
        for metric, kind in kinds.items():
            values = [run["values"][metric] for run in runs]
            end_to_end[metric] = {
                "unit": kind["unit"], "median": statistics.median(values),
                "min": min(values), "max": max(values), "values": values,
            }
        entry = report[name] = {
            "end_to_end": end_to_end,
            "ops_attempted": sum(run["ops_attempted"] for run in runs),
            "ops_failed": sum(run["ops_failed"] for run in runs),
            "digest": runs[0]["digest"],
            "sim_delay": runs[0]["sim_delay"],
        }
        if name in traced:
            entry["per_layer"] = traced[name]["values"]
            entry["trace_overhead_pct"] = 100.0 * (
                traced[name]["values"]["trace.wall_s"] / end_to_end["wall_s"]["median"] - 1.0
            )

    for name, entry in report.items():
        print(f"\n{name}  (median of {args.repeats} repeat(s), min..max; "
              f"ops {entry['ops_attempted']} attempted, {entry['ops_failed']} failed)")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:24s} {row['median']:14.4f} {row['unit']:6s} "
                  f"({row['min']:.4f} .. {row['max']:.4f})")
        if "per_layer" in entry:
            print(f"  trace_overhead_pct       {entry['trace_overhead_pct']:14.2f} %")
            for metric, value in sorted(entry["per_layer"].items()):
                if value:
                    print(f"    {metric:30s} {value:16.6f}")
    if noisy:
        print(f"\nNOISY: 1-min load average exceeded the {info['visible_cpus']} visible CPUs "
              "during this run; treat the timings with suspicion")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    out = Path(args.out) if args.out else RESULTS / f"{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(
        json.dumps({
            # A result file records; the issue that compares two of them claims.
            "claim": None,
            "fingerprint": info, "noisy": noisy, "seconds": seconds,
            "failures": failures, "workloads": report,
        }, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"\nresults written to {out}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every ScenarioSpec.seed the workloads generate")
    parser.add_argument("--repeats", type=int, default=5,
                        help="fresh-process repeats per workload (whole-benchmark mode)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for the tier-1 test")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="per-layer numbers: a traced pass (whole benchmark) or "
                        "a traced measurement (with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long and print one JSON line")
    parser.add_argument("--out", metavar="FILE", help="write the result record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge result file B against A and exit non-zero on a regression")
    args = parser.parse_args(argv)
    declared = declaration()
    known = [w["name"] for w in declared["workloads"]]
    for name in args.workload or ():
        if name not in known:
            parser.error(f"unknown workload {name!r}; declared: {', '.join(known)}")
    if args.compare:
        import perf_compare

        return perf_compare.compare(*args.compare, declared)
    if args.seconds is not None:
        if len(args.workload or ()) != 1:
            parser.error("--seconds measures exactly one --workload")
        return measure(args, declared)
    return orchestrate(args, declared)


if __name__ == "__main__":
    sys.exit(main())
