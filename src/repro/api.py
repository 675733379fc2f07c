"""The stable public API facade.

``repro.api`` is the one import that benchmarks, the CLI, notebooks, and
downstream scripts should reach for.  It re-exports the declarative scenario
layer and the system registry, and adds nine verbs:

* :func:`run` — execute one scenario (spec, mapping, or system name plus
  field overrides) and return its :class:`~repro.fl.history.TrainingHistory`;
* :func:`sweep` — expand scenario files/mappings/spec lists and run every
  grid point through one dataset-memoising engine;
* :func:`compare` — run several systems on one shared workload, applying
  each field only to the systems whose registered capabilities support it;
* :func:`search` — adaptive (ASHA / successive-halving) sweep: launch the
  expanded cohort at low fidelity, keep the top ``1/eta`` per rung, resume
  survivors from their stored checkpoints (see ``docs/search.md``);
* :func:`load_scenario` — parse a JSON/TOML file or mapping into validated
  :class:`~repro.runner.scenario.ScenarioSpec` objects;
* :func:`list_systems` — the registered system names (CLI choices, sweep
  axes, and docs derive from the same list);
* :func:`report` — tabulate a content-addressed :class:`RunStore` into the
  paper-style summary table without re-running anything;
* :func:`serve` — boot the long-running experiment service (HTTP/JSON job
  queue with worker pool and single-flight dedup over the run store — see
  ``docs/serve.md``) and return the running server;
* :func:`submit` — send one scenario to a running server (``repro serve``
  or :func:`serve`) and, by default, wait for its bit-identical history.

``run``/``sweep``/``compare``/``search`` accept an opt-in ``cache`` argument:
``cache="store"`` persists every run under its content key in the default
``results/store/`` and reuses existing records (``repro sweep --resume`` is
this path); a directory path or a :class:`RunStore` selects another store.
See ``docs/results.md`` for the key semantics.

``__all__`` is the compatibility contract: a snapshot test pins it, so
anything listed here stays importable and call-compatible across releases.

>>> from repro import api
>>> history = api.run("fedavg", num_clients=8, num_samples=400, num_rounds=2)
>>> len(history)
2

Registering a new system (see ``docs/api.md`` and
``examples/custom_system.py``)::

    from repro import api

    class MySystem(api.System):
        name = "my-system"
        capabilities = api.SystemCapabilities(needs_dataset=True)
        def build(self, spec, dataset): ...

    api.register_system(MySystem())
    api.run("my-system", num_rounds=3)
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.core.results import SUMMARY_COLUMNS, ComparisonResult, summary_table
from repro.fl.history import TrainingHistory
from repro.runner.engine import ExperimentEngine, ScenarioResult
from repro.runner.scenario import (
    ScenarioError,
    ScenarioMatrix,
    ScenarioSpec,
    load_scenario_file,
    scenarios_from_mapping,
)
from repro.search import SearchResult, run_search
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.store.keys import spec_key
from repro.store.report import report_table
from repro.store.runstore import RunStore, StoredRun
from repro.systems import (
    RunResult,
    System,
    SystemCapabilities,
    filter_unsupported_axes,
    get_system,
    load_plugins,
    register_system,
    system_names,
    unregister_system,
)

__all__ = [  # pinned by tests/test_systems_api.py::test_public_api_snapshot
    "ComparisonResult",
    "ExperimentEngine",
    "ReproServer",
    "RunResult",
    "RunStore",
    "ScenarioError",
    "ScenarioMatrix",
    "ScenarioResult",
    "ScenarioSpec",
    "SearchResult",
    "ServeClient",
    "StoredRun",
    "System",
    "SystemCapabilities",
    "TrainingHistory",
    "compare",
    "get_system",
    "list_systems",
    "load_plugins",
    "load_scenario",
    "register_system",
    "report",
    "run",
    "search",
    "serve",
    "spec_key",
    "submit",
    "sweep",
    "unregister_system",
]


def _resolve_store(cache) -> RunStore | None:
    """Normalise the public ``cache`` argument into a :class:`RunStore` (or None).

    ``None`` disables caching, the literal ``"store"`` selects the default
    ``results/store/`` root, a path selects another root, and a
    :class:`RunStore` instance is used as-is.
    """
    if cache is None:
        return None
    if isinstance(cache, RunStore):
        return cache
    if cache == "store":
        return RunStore()
    if isinstance(cache, (str, Path)):
        return RunStore(cache)
    raise ScenarioError(
        'cache must be None, "store", a store directory path, or a RunStore; '
        f"got {type(cache).__name__}"
    )


def _engine_for(engine: ExperimentEngine | None, cache) -> ExperimentEngine:
    """The engine a facade verb should run through, honouring ``cache``."""
    if engine is not None:
        if cache is not None:
            raise ScenarioError(
                "pass either engine= (configure its store directly) or cache=, not both"
            )
        return engine
    return ExperimentEngine(store=_resolve_store(cache))


def list_systems() -> tuple[str, ...]:
    """Names of every registered system, in registration order."""
    return system_names()


def load_scenario(source) -> list[ScenarioSpec]:
    """Expand a scenario source into validated specs.

    ``source`` is a ``.json``/``.toml`` path or an already-parsed mapping in
    any of the three document shapes (single scenario, explicit list,
    cartesian matrix — see ``docs/scenarios.md``).
    """
    if isinstance(source, Mapping):
        return scenarios_from_mapping(dict(source))
    return load_scenario_file(source)


def _as_spec(target, fields: dict) -> ScenarioSpec:
    """Normalise run()'s flexible target argument into one validated spec."""
    if isinstance(target, ScenarioSpec):
        return target.with_overrides(**fields) if fields else target
    if isinstance(target, Mapping):
        return ScenarioSpec.from_mapping({**dict(target), **fields})
    if isinstance(target, str):
        mapping = dict(fields)
        mapping.setdefault("name", target)
        mapping["system"] = target
        return ScenarioSpec.from_mapping(mapping)
    if target is None:
        return ScenarioSpec.from_mapping(fields)
    raise ScenarioError(
        "run() expects a ScenarioSpec, a field mapping, or a system name; got "
        f"{type(target).__name__}"
    )


def run(
    target=None, *, engine: ExperimentEngine | None = None, cache=None, **fields
) -> TrainingHistory:
    """Run one scenario and return its history.

    ``target`` may be a validated :class:`ScenarioSpec`, a plain field
    mapping, a registered system name (``fields`` then override the scenario
    defaults), or ``None`` (``fields`` describe the whole scenario).  Pass an
    :class:`ExperimentEngine` to share dataset memoisation across calls, or
    ``cache="store"`` (a path / :class:`RunStore` also works) to persist the
    run under its content key and reuse an existing record.
    """
    spec = _as_spec(target, fields)
    return _engine_for(engine, cache).run(spec)


def _expand_sources(
    sources, *, overrides: Mapping[str, object] | None = None, verb: str = "sweep"
) -> list[ScenarioSpec]:
    """Expand sweep/search sources into validated specs (overrides applied).

    Each source may be a scenario file path, a parsed document mapping, a
    :class:`ScenarioSpec`, or an iterable of specs; ``overrides`` apply to
    every expanded scenario with capability-gated axis fields dropped for
    systems that do not support them.
    """
    specs: list[ScenarioSpec] = []
    for source in sources:
        if isinstance(source, ScenarioSpec):
            specs.append(source)
        elif isinstance(source, Mapping):
            specs.extend(scenarios_from_mapping(dict(source)))
        elif isinstance(source, Iterable) and not isinstance(source, (str, Path)):
            for spec in source:
                if not isinstance(spec, ScenarioSpec):
                    raise ScenarioError(
                        f"{verb}() iterables must contain ScenarioSpec objects, got "
                        f"{type(spec).__name__}"
                    )
                specs.append(spec)
        else:
            specs.extend(load_scenario_file(source))
    if overrides:
        specs = [
            spec.with_overrides(**filter_unsupported_axes(spec.system, overrides)) for spec in specs
        ]
    return specs


def sweep(
    *sources,
    engine: ExperimentEngine | None = None,
    cache=None,
    overrides: Mapping[str, object] | None = None,
    title: str | None = None,
) -> tuple[ComparisonResult, list[ScenarioResult]]:
    """Run every scenario expanded from ``sources`` and tabulate the summaries.

    Each source may be a scenario file path, a parsed document mapping, a
    :class:`ScenarioSpec`, or an iterable of specs.  ``overrides`` apply to
    every expanded scenario, with capability-gated axis fields (round modes,
    attacks, defenses) dropped for systems that do not support them.
    Datasets are memoised across the whole sweep by one shared engine, and
    ``cache="store"`` makes the sweep resumable: grid points whose records
    already exist in the store load from disk, only the missing cells
    compute (``repro sweep --resume`` is exactly this).
    """
    specs = _expand_sources(sources, overrides=overrides, verb="sweep")
    if title is None:
        title = f"Scenario sweep ({len(specs)} scenario{'s' if len(specs) != 1 else ''})"
    return _engine_for(engine, cache).sweep_table(specs, title=title)


def compare(
    systems: Iterable[str] | None = None,
    *,
    engine: ExperimentEngine | None = None,
    cache=None,
    per_system: Mapping[str, Mapping[str, object]] | None = None,
    title: str = "System comparison (same workload, same seed)",
    **fields,
) -> tuple[ComparisonResult, list[ScenarioResult]]:
    """Run several systems on one shared workload and tabulate the summaries.

    ``systems`` defaults to every registered system (plugins included).  The
    shared ``fields`` are applied per system through the capability filter —
    e.g. ``round_mode="async"`` reaches only the systems that support round
    modes — and ``per_system`` adds system-specific overrides on top (the
    CLI uses it for FedProx's straggler drop).  Datasets are memoised across
    the comparison; ``cache="store"`` additionally persists/reuses each
    system's run by content key.
    """
    names = tuple(systems) if systems is not None else system_names()
    per_system = per_system or {}
    specs: list[ScenarioSpec] = []
    for name in names:
        # An unknown name fails here, with the registry's actionable message.
        shared = filter_unsupported_axes(name, fields)
        specs.append(_as_spec(name, {**shared, **per_system.get(name, {})}))
    results = _engine_for(engine, cache).run_many(specs)
    # One shared workload: the system names the row and the round count is common.
    columns = tuple(c for c in SUMMARY_COLUMNS if c not in ("scenario", "rounds"))
    return summary_table(title, results, columns), results


def search(
    *sources,
    metric="final_accuracy",
    eta: int = 3,
    min_rounds: int | None = None,
    max_rounds: int | None = None,
    engine: ExperimentEngine | None = None,
    cache=None,
    overrides: Mapping[str, object] | None = None,
) -> SearchResult:
    """Adaptive (ASHA / successive-halving) search over a scenario cohort.

    ``sources`` expand exactly like :func:`sweep` (files, mappings, specs —
    a cartesian ``matrix`` document is the natural grid).  Every expanded
    scenario is one trial; trials run at the first rung's fidelity (few
    rounds), are ranked by ``metric`` (``final_accuracy``, ``avg_accuracy``,
    or ``delay`` — validated against the trial systems' registered
    capabilities), and only the top ``1/eta`` fraction is promoted to the
    next rung, up to ``max_rounds`` (default: the largest ``num_rounds``
    among the trials).

    Pass ``cache="store"`` (or a store path / :class:`RunStore`) to make
    promotions cheap and the search durable: every rung evaluation is a
    first-class content-addressed record carrying a resumable checkpoint, so
    a promoted trial *continues* from round ``r`` instead of replaying it,
    a killed search re-run with the same store finishes bit-identically, and
    concurrent searches share rungs.  Without a store the rankings are
    identical but every rung recomputes from round zero.

    Returns a :class:`SearchResult` (rung-by-rung standings, final
    leaderboard, best trial, and the round-evaluation budget actually
    spent vs. the exhaustive grid's).
    """
    specs = _expand_sources(sources, overrides=overrides, verb="search")
    shared_engine = _engine_for(engine, cache)
    return run_search(
        specs,
        engine=shared_engine,
        metric=metric,
        eta=eta,
        min_rounds=min_rounds,
        max_rounds=max_rounds,
    )


def report(
    store: "RunStore | str | Path | None" = None,
    *,
    systems: Iterable[str] | None = None,
    title: str | None = None,
) -> ComparisonResult:
    """Tabulate the runs persisted in a content-addressed store.

    ``store`` is a :class:`RunStore`, a store directory path, or ``None``
    for the default ``results/store/``.  ``systems`` restricts the rows to
    those system names.  The returned :class:`ComparisonResult` renders as
    text (``to_text()``), Markdown (:func:`repro.store.report.to_markdown`),
    or CSV (:func:`repro.core.io.save_comparison_csv`) — the same pipeline
    the ``repro report`` CLI subcommand drives.
    """
    if not isinstance(store, RunStore):
        store = RunStore() if store is None else RunStore(store)
    return report_table(store, systems=tuple(systems) if systems is not None else None, title=title)


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    store="store",
    isolation: str = "thread",
    max_retries: int = 1,
) -> ReproServer:
    """Boot the experiment service and return the running server.

    The server wraps a shared :class:`ExperimentEngine` and a
    content-addressed :class:`RunStore` behind an HTTP/JSON job queue:
    submissions of already-stored runs answer read-through without
    computing, concurrent identical submissions collapse single-flight into
    one computation, and ``workers`` workers drain the rest (``isolation=
    "process"`` runs each job in a supervised child process, retried up to
    ``max_retries`` times if the child dies).  ``port=0`` binds an ephemeral
    port; read it back from ``server.port`` / ``server.url``.  ``store``
    follows the ``cache`` convention (``"store"``, a path, or a
    :class:`RunStore`).  The server is a context manager; ``close()`` shuts
    it down.  See ``docs/serve.md`` for the endpoint reference.
    """
    server = ReproServer(
        host,
        port,
        store=_resolve_store(store),
        workers=workers,
        isolation=isolation,
        max_retries=max_retries,
    )
    return server.start()


def submit(
    target=None, *, server, wait: bool = True, timeout: float = 120.0, **fields
):
    """Send one scenario to a running experiment server.

    ``target`` and ``fields`` are interpreted exactly like :func:`run`
    (spec, mapping, or system name plus overrides); ``server`` is a base URL
    (``"http://127.0.0.1:8731"``) or a :class:`ReproServer`.  With
    ``wait=True`` (default) this blocks until the job finishes and returns
    its :class:`TrainingHistory` — bit-identical to running the same spec
    locally.  With ``wait=False`` it returns the submission's job payload
    (``job_id``, ``spec_key``, state) immediately; poll or cancel it through
    :class:`ServeClient`.
    """
    spec = _as_spec(target, fields)
    base_url = server.url if isinstance(server, ReproServer) else str(server)
    client = ServeClient(base_url)
    if not wait:
        return client.submit(spec)[0]
    return client.run(spec, timeout=timeout)
