"""Command-line interface.

Run the reproduced systems without writing any Python:

.. code-block:: bash

   python -m repro.cli run fairbfl --clients 12 --rounds 8
   python -m repro.cli run fedavg  --clients 12 --rounds 8
   python -m repro.cli run fedavg  --backend cohort --workers 2
   python -m repro.cli run fairbfl --round-mode semi_sync --straggler-deadline 4
   python -m repro.cli run fairbfl --attacks --attack-name scaling --defense krum
   python -m repro.cli compare --clients 12 --rounds 8 --export results.csv
   python -m repro.cli sweep --scenario scenarios/example_sweep.toml
   python -m repro.cli sweep --scenario scenarios/example_sweep.toml --resume
   python -m repro.cli search --scenario scenarios/example_search.toml
   python -m repro.cli search --scenario scenarios/example_search.toml --metric delay --eta 2
   python -m repro.cli report --markdown summary.md
   python -m repro.cli serve --port 8731 --workers 2
   python -m repro.cli run fairbfl --server http://127.0.0.1:8731
   python -m repro.cli sweep --scenario scenarios/example_sweep.toml --server http://127.0.0.1:8731
   python -m repro.cli --plugins examples/custom_system.py run fedavg-momentum

``run`` executes one system and prints its per-round series and summary;
``compare`` runs every registered system on the same workload and prints the
Figure-4-style comparison; ``sweep`` expands a JSON/TOML scenario file
(single scenario, explicit list, or cartesian matrix — see
``docs/scenarios.md``) and runs every grid point; ``search`` runs the same
expansion *adaptively* (ASHA successive halving: low-fidelity rungs, top
``1/eta`` promoted, survivors resumed from stored checkpoints — see
``docs/search.md``); ``report`` summarises the runs persisted in the
content-addressed store without re-running anything; ``serve`` boots the
long-running experiment service (HTTP/JSON job queue over the run store —
``docs/serve.md``), and ``run --server URL`` / ``sweep --server URL`` turn
those subcommands into thin clients of it: the scenario is submitted to the
daemon, progress is polled, and the printed history is bit-identical to a
local run.

``sweep`` persists every completed grid point to the run store
(``results/store/`` by default, ``--store`` to relocate) as it goes, so a
killed sweep loses nothing: re-running with ``--resume`` loads the finished
cells from disk and computes only the missing ones, bit-identically to an
uncached run.  ``--no-cache`` opts out of the store entirely.  ``search``
reads *and* writes the store by default (rung checkpoints are how promotions
resume; a killed search re-run finishes bit-identically).  Both print their
engine counters at exit — runs computed, cache hits, and total simulated
round-evaluations.  Key semantics, layout, and a walkthrough live in
``docs/results.md``.

The system choices are **derived from the system registry**
(:mod:`repro.systems`): ``--plugins`` (repeatable, also the
``REPRO_PLUGINS`` environment variable) imports plugin modules that call
``register_system()`` before the parser is built, so a system registered
from outside the repository runs through ``run``/``sweep``/``compare`` with
no CLI changes.  All three subcommands drive through the stable
:mod:`repro.api` facade, so a CLI run, a benchmark, and a scenario file with
the same parameters produce identical histories.

The ``--backend`` flag selects how each round's local updates run
(``serial`` | ``cohort``); results are bit-identical across backends.
``--round-mode`` selects the round discipline (``sync`` |
``semi_sync`` | ``async``; see ``docs/scenarios.md``) and
``--attacks``/``--attack-name``/``--defense`` configure the threat model
(``docs/threat_model.md``).  Axis flags apply only to systems whose
registered capabilities support them: ``run`` rejects an unsupported
combination with an actionable error, while ``compare`` and sweep-wide
overrides apply each flag to the systems that can honour it.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys

from repro import api
from repro.core.io import save_comparison_csv, save_history_csv
from repro.core.results import ComparisonResult, summarize_history, summary_table
from repro.search import PROMOTION_METRICS
from repro.runner.scenario import ScenarioError
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.workers import ISOLATION_MODES
from repro.store import DEFAULT_STORE_ROOT, save_markdown
from repro.systems import SystemRegistryError, load_plugins, system_names

__all__ = ["build_parser", "main"]

#: System-specific spec overrides the CLI applies on top of the shared flags
#: (the CLI's FedProx baseline keeps the paper's 2% straggler drop).
_PER_SYSTEM_OVERRIDES = {"fedprox": {"drop_percent": 0.02}}

#: The ScenarioSpec fields that declare a command-line flag, in declaration order.
_FLAGGED = tuple(f for f in dataclasses.fields(api.ScenarioSpec) if "flag" in f.metadata)
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}


def add_spec_flags(
    parser: argparse.ArgumentParser, names=None, overriding: bool = False
) -> None:
    """Add the option of every flagged :class:`ScenarioSpec` field (or just ``names``).

    Flag, help, choices and default all come from the field's declaration in
    ``runner/scenario.py``, and the parsed value lands under the field's own
    name, so :func:`_fields_from_args` needs no flag-to-field mapping.  With
    ``overriding`` the options default to ``None`` ("not passed"): sweep and
    search apply them on top of what a scenario file says.
    """
    for f in _FLAGGED:
        if names is not None and f.name not in names:
            continue
        options = {"dest": f.name, "help": f.metadata["help"]}
        if f.type == "bool":
            options["action"] = "store_true"
        else:
            options["type"] = _FLAG_TYPES.get(f.type)
            options["choices"] = f.metadata.get("choices")
            options["default"] = f.metadata.get("cli_default", f.default)
        if overriding:
            options["default"] = None
            options["help"] += "; overrides every scenario in the file that supports it"
        parser.add_argument(f.metadata["flag"], **options)


#: The options several subcommands share: everything but the per-verb help
#: text, which :func:`_shared` takes from the caller.
_SHARED = {
    "--export": {"default": None},
    "--scenario": {"required": True, "action": "append"},
    "--store": {"default": str(DEFAULT_STORE_ROOT), "metavar": "DIR"},
    "--no-cache": {"action": "store_true"},
    "--server": {"default": None, "metavar": "URL"},
}
_SERVER_HELP = (
    "submit to a running experiment server (repro serve) instead of "
    "computing locally; histories are bit-identical either way"
)


def _shared(parser, flag: str, help: str) -> None:  # noqa: A002 - argparse's own name
    """Declare the shared option ``flag`` on ``parser`` with this verb's help text."""
    parser.add_argument(flag, help=help, **_SHARED[flag])


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing).

    The ``run`` choices and the ``compare`` roster come from the system
    registry, so plugins loaded before this call (``--plugins`` /
    ``REPRO_PLUGINS``) appear automatically.  Every subcommand binds the
    function that executes it as ``handler``; :func:`main` calls it.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAIR-BFL reproduction: run the paper's systems from the command line.",
    )
    parser.add_argument(
        "--plugins",
        action="append",
        default=None,
        metavar="MODULE_OR_FILE",
        help="import a plugin module (dotted name or .py path) that registers "
        "extra systems before the subcommand runs; repeatable, also read from "
        "the REPRO_PLUGINS environment variable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single registered system")
    run_p.set_defaults(handler=_run)
    run_p.add_argument("system", choices=list(system_names()))
    add_spec_flags(run_p)
    _shared(run_p, "--export", "write the per-round series to this CSV file")
    _shared(run_p, "--server", _SERVER_HELP)

    cmp_p = sub.add_parser("compare", help="run every registered system on the same workload")
    cmp_p.set_defaults(handler=_compare)
    add_spec_flags(cmp_p)
    _shared(cmp_p, "--export", "write the per-round series to this CSV file")

    sweep_p = sub.add_parser("sweep", help="run every scenario in a JSON/TOML scenario file")
    sweep_p.set_defaults(handler=_sweep)
    _shared(sweep_p, "--scenario", "scenario file (.json or .toml); repeatable")
    _shared(sweep_p, "--export", "write the sweep summary to this CSV file")
    # For sweep the flags are *overrides* of what the scenario file says
    # (axis overrides reach only the scenarios whose systems support the axis).
    add_spec_flags(sweep_p, ("backend", "max_workers", "round_mode", "defense"), overriding=True)
    _shared(
        sweep_p, "--store", "content-addressed run store the sweep persists to (docs/results.md)"
    )
    cache_group = sweep_p.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--resume",
        action="store_true",
        help="load grid points already in the run store and compute only the "
        "missing ones (bit-identical to an uncached sweep)",
    )
    _shared(cache_group, "--no-cache", "neither read nor write the run store; recompute everything")
    _shared(sweep_p, "--server", _SERVER_HELP)

    search_p = sub.add_parser(
        "search",
        help="adaptively search a scenario cohort with successive halving (ASHA)",
    )
    search_p.set_defaults(handler=_search)
    _shared(
        search_p,
        "--scenario",
        "scenario file (.json or .toml) whose expansion is the trial cohort; repeatable",
    )
    search_p.add_argument(
        "--metric",
        default="final_accuracy",
        choices=list(PROMOTION_METRICS),
        help="promotion metric trials are ranked by at each rung (docs/search.md)",
    )
    search_p.add_argument(
        "--eta",
        type=int,
        default=3,
        help="halving rate: top 1/eta of each rung is promoted, fidelity grows by eta",
    )
    search_p.add_argument(
        "--min-rounds",
        type=int,
        default=None,
        help="first rung's fidelity in rounds (default: ceil(max_rounds / eta^2))",
    )
    search_p.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="final rung's fidelity (default: the largest num_rounds in the cohort)",
    )
    _shared(search_p, "--export", "write the final leaderboard to this CSV file")
    add_spec_flags(search_p, ("backend", "max_workers"), overriding=True)
    _shared(
        search_p,
        "--store",
        "content-addressed run store rung records and checkpoints live in "
        "(the resume mechanism — docs/search.md)",
    )
    _shared(
        search_p,
        "--no-cache",
        "neither read nor write the run store; every rung recomputes from round zero",
    )

    report_p = sub.add_parser(
        "report", help="summarise the runs persisted in the content-addressed store"
    )
    report_p.set_defaults(handler=_report)
    _shared(report_p, "--store", "run store directory to summarise (default: results/store)")
    report_p.add_argument(
        "--system",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the report to this system; repeatable",
    )
    _shared(report_p, "--export", "write the summary table to this CSV file")
    report_p.add_argument(
        "--markdown", default=None, help="write the summary as a Markdown table to this file"
    )

    serve_p = sub.add_parser(
        "serve",
        help="serve experiments over HTTP: job queue, worker pool, dedup (docs/serve.md)",
    )
    serve_p.set_defaults(handler=_serve)
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=8731, help="bind port (0 picks an ephemeral port)"
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, help="workers draining the job queue"
    )
    serve_p.add_argument(
        "--isolation",
        default="thread",
        choices=list(ISOLATION_MODES),
        help="job execution: inline in a worker thread, or one supervised "
        "child process per job (crash-isolated, retried)",
    )
    serve_p.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="requeues granted to a job whose worker process died (process isolation)",
    )
    _shared(
        serve_p, "--store", "content-addressed run store results are served from and persisted to"
    )
    return parser


def _is_plugins_flag(token: str) -> bool:
    """True for ``--plugins`` and the abbreviations argparse would accept.

    argparse prefix-matches long options, so ``--plugin`` (or ``--pl``)
    reaches the same action; the pre-scan must agree or an abbreviated flag
    would parse fine yet never load the plugin.  At the top level only
    ``--plugins`` starts with ``--p``, so any such prefix is unambiguous.
    """
    return token.startswith("--p") and "--plugins".startswith(token)


def _plugin_entries(argv: list[str]) -> list[str]:
    """Pre-scan argv for --plugins values (needed before the parser exists).

    Plugins must load before ``build_parser()`` so registry-derived choices
    include plugin systems; argparse itself still consumes the flag normally.
    """
    entries: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("-"):
            # The subcommand: argparse only accepts the top-level --plugins
            # *before* it, and past this point the same abbreviations mean
            # subcommand flags (--p is run's --participation).
            break
        flag, sep, value = arg.partition("=")
        if _is_plugins_flag(flag):
            if sep:
                entries.append(value)
            elif i + 1 < len(argv):
                entries.append(argv[i + 1])
                i += 2
                continue
        i += 1
    return entries


def _fields_from_args(args: argparse.Namespace) -> dict:
    """The scenario fields the parsed spec flags carry (``None`` means "not passed")."""
    values = ((f.name, getattr(args, f.name, None)) for f in _FLAGGED)
    return {name: value for name, value in values if value is not None}


def _print_history(name: str, hist) -> None:
    print(f"== {name} ==")
    print(f"{'round':>5}  {'delay (s)':>10}  {'accuracy':>9}")
    for record in hist.rounds:
        print(f"{record.round_index:>5}  {record.delay:>10.2f}  {record.accuracy:>9.3f}")
    summary = summarize_history(hist)
    print(
        f"summary: avg delay {summary['average_delay']:.2f} s, "
        f"avg accuracy {summary['average_accuracy']:.3f}, "
        f"final accuracy {summary['final_accuracy']:.3f}, "
        f"total simulated time {summary['total_time']:.1f} s"
    )


def _export(args, what: str, artefact, save=save_comparison_csv) -> None:
    """Honour ``--export``: write the CSV and say where it went."""
    if args.export:
        print(f"{what} written to {save(artefact, args.export)}")


def _print_counters(where: str, hits: int, computed: int, rest: str) -> None:
    print(f"{where}: {hits} loaded, {computed} computed, {rest}")


def _print_store_counters(args: argparse.Namespace, engine, hint: str = "") -> None:
    """What the run store saved this invocation; nothing to say under ``--no-cache``."""
    if engine.store is not None:
        rest = f"{engine.round_evaluations} round-evaluations simulated{hint}"
        _print_counters(f"run store {args.store}", engine.cache_hits, engine.runs_computed, rest)


def _serve(args: argparse.Namespace) -> int:
    server = api.ReproServer(
        args.host,
        args.port,
        store=api.RunStore(args.store),
        workers=args.workers,
        isolation=args.isolation,
        max_retries=args.max_retries,
    )
    # SIGTERM gets the same clean shutdown as Ctrl-C: backgrounded shells
    # (and CI) often can't deliver SIGINT to a non-interactive child.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(
        f"experiment server listening on {server.url} "
        f"({args.workers} {args.isolation} worker(s), store {args.store})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.close()
    return 0


def _run(args: argparse.Namespace) -> int:
    fields = _fields_from_args(args)
    fields["name"] = args.system
    fields.update(_PER_SYSTEM_OVERRIDES.get(args.system, {}))
    if args.server:
        hist = api.submit(args.system, server=args.server, **fields)
    else:
        hist = api.run(args.system, **fields)
    _print_history(args.system, hist)
    _export(args, "per-round series", hist, save_history_csv)
    return 0


def _compare(args: argparse.Namespace) -> int:
    table, _results = api.compare(per_system=_PER_SYSTEM_OVERRIDES, **_fields_from_args(args))
    print(table.to_text())
    _export(args, "comparison", table)
    return 0


def _report(args: argparse.Namespace) -> int:
    table = api.report(api.RunStore(args.store), systems=args.system)
    if not table.rows:
        wanted = f" for system(s) {', '.join(args.system)}" if args.system else ""
        print(f"error: no stored runs{wanted} under {args.store}", file=sys.stderr)
        return 1
    print(table.to_text())
    _export(args, "report", table)
    if args.markdown:
        print(f"markdown report written to {save_markdown(table, args.markdown)}")
    return 0


def _search(args: argparse.Namespace) -> int:
    # Unlike sweep, the store is read *and* written by default: rung
    # checkpoints are how promotions resume, and a killed search re-run
    # finishes bit-identically from whatever rungs already exist.
    store = None if args.no_cache else api.RunStore(args.store)
    engine = api.ExperimentEngine(store=store, reuse_cached=True)
    result = api.search(
        *args.scenario,
        engine=engine,
        metric=args.metric,
        eta=args.eta,
        min_rounds=args.min_rounds,
        max_rounds=args.max_rounds,
        overrides=_fields_from_args(args) or None,
    )
    rung_text = " -> ".join(str(r) for r in result.rungs)
    print(
        f"ASHA search: metric {result.metric} ({result.mode}), "
        f"eta {result.eta}, rungs {rung_text}"
    )
    for rung in result.rung_results:
        if rung.promoted:
            print(
                f"rung {rung.rounds:>4} rounds: {len(rung.trials)} trials, "
                f"promoted {len(rung.promoted)}: {', '.join(rung.promoted)}"
            )
        else:
            print(f"rung {rung.rounds:>4} rounds: {len(rung.trials)} trials (final)")
    table = ComparisonResult(
        title="Search leaderboard",
        columns=["rank", "scenario", "system", "rounds", result.metric],
    )
    for rank, trial in enumerate(result.leaderboard, start=1):
        table.add_row(rank, trial.name, trial.spec.system, trial.rounds, trial.score)
    print(table.to_text())
    print(
        f"best: {result.best.name} "
        f"({result.metric} {result.best.score:.3f} at {result.best.rounds} rounds)"
    )
    print(
        f"search budget: {result.round_evaluations} round-evaluations vs "
        f"{result.grid_round_evaluations} exhaustive grid "
        f"({result.evaluation_fraction:.0%})"
    )
    _print_store_counters(args, engine)
    _export(args, "leaderboard", table)
    return 0


def _sweep(args: argparse.Namespace) -> int:
    # Apply only the flags the user actually passed; a scenario file's own
    # backend/max_workers settings are otherwise preserved, and axis overrides
    # reach only the scenarios whose systems support the axis.
    overrides = _fields_from_args(args) or None
    if args.server:
        # Expansion, override fan-out and tabulation are the local sweep's own
        # steps (so the two cannot drift); only the run step differs: every grid
        # point is submitted up front so the server pipelines them across its workers.
        client = ServeClient(args.server)
        specs = api._expand_sources(args.scenario, overrides=overrides)
        jobs = [client.submit(spec)[0] for spec in specs]
        results = [
            api.ScenarioResult(spec=spec, history=client.collect(job["job_id"], timeout=600.0))
            for spec, job in zip(specs, jobs)
        ]
        plural = "s" if len(specs) != 1 else ""
        table = summary_table(f"Scenario sweep ({len(specs)} scenario{plural}, remote)", results)
        print(table.to_text())
        health = client.health()
        _print_counters(
            f"server {args.server}",
            health["engine"]["cache_hits"],
            health["engine"]["runs_computed"],
            f"{health['readthrough_hits']} served read-through, "
            f"{health['singleflight_hits']} deduped in flight",
        )
    else:
        # The store is write-through by default (every completed grid point is
        # persisted as the sweep goes, so a killed sweep loses nothing); --resume
        # additionally *reads* it, and --no-cache disables it entirely.
        store = None if args.no_cache else api.RunStore(args.store)
        engine = api.ExperimentEngine(store=store, reuse_cached=args.resume)
        table, _results = api.sweep(*args.scenario, engine=engine, overrides=overrides)
        print(table.to_text())
        _print_store_counters(
            args, engine, "" if args.resume else " (re-run with --resume to reuse them)"
        )
    _export(args, "sweep summary", table)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: a bad scenario, flag value or plugin exits 2 (like
    argparse's own errors), an unreachable server or a job that failed there 1.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        load_plugins(_plugin_entries(argv), include_env=True)
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ScenarioError, SystemRegistryError, ServeClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ServeClientError) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
