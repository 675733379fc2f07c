"""Docs-freshness checker.

Fails (exit code 1) when the documentation has drifted from the code:

1. a public module under ``src/repro`` lacks a module docstring;
2. ``README.md`` references a ``benchmarks/bench_*.py`` file that does not
   exist, or a benchmark file exists that the README's figure/table map does
   not mention;
3. ``docs/scenarios.md`` is missing a ``ScenarioSpec`` field, or a field's
   row states a type or default other than the one the dataclass declares;
4. an example scenario file under ``scenarios/`` fails to load/validate;
5. a configuration axis value (a round mode, an attack name, a defense name,
   a topology, or the ``partition`` / ``churn`` net axis names) is missing
   from the docs that must catalogue it (``docs/scenarios.md`` and
   ``docs/threat_model.md``) — the value lists are the ``choices`` the
   ``ScenarioSpec`` fields declare (plus ``DEFENSES``, the vocabulary of the
   ``defense`` chain grammar), so adding a value without documenting it fails
   this check;
6. a *registered system* name (``repro.systems.system_names()``) is missing
   from ``docs/scenarios.md`` or the public-API reference ``docs/api.md`` —
   registering a system without documenting it fails this check;
7. a CLI flag accepted by ``repro.cli`` (any subcommand) does not appear in
   the ``docs/cli_help.txt`` snapshot;
8. a benchmark file ``benchmarks/bench_*.py`` is missing from the benchmark
   catalogue ``docs/benchmarks.md`` (or the catalogue names a bench that no
   longer exists) — every bench must document which paper figure/table it
   reproduces;
9. a name in ``repro.api.__all__`` is missing from ``docs/api.md`` or lacks
   a docstring — the stable facade must stay fully referenced and
   self-describing;
10. a ``repro`` CLI subcommand is mentioned in neither the README quickstart
    nor ``docs/api.md`` — every verb the parser accepts must have at least
    one discoverable usage reference (``repro <verb>`` or
    ``repro.cli <verb>``);
11. an HTTP endpoint declared in ``repro.serve.protocol.ENDPOINTS`` is
    missing from the service reference ``docs/serve.md`` — the endpoint
    table is imported from the code, so adding a route without documenting
    its method and path fails this check;
12. a Sphinx cross-reference role (``:class:``, ``:mod:``, ``:func:``,
    ``:meth:``, ``:attr:``, ``:data:``, ``:exc:``) in a ``src/`` docstring,
    ``docs/*.md`` or ``README.md``, or a plain-backticked dotted ``repro.…``
    name in ``docs/*.md`` or ``README.md``, names a target that no longer
    resolves by import + ``getattr`` — deleting or moving a module, class or
    method without rewriting the prose that points at it fails this check;
13. a module of a *lower* layer (``utils nn datasets crypto sim blockchain net
    fl incentive attacks core``) imports an *upper* one (``repro.runner``,
    ``repro.systems``, ``repro.store``, ``repro.search``, ``repro.serve``,
    ``repro.api``, ``repro.cli``), ``TYPE_CHECKING`` blocks included — the
    layering ``docs/architecture.md`` states in prose is checked from the
    import statements themselves;
14. a ``package/file.py`` path written in a ``src/`` comment or docstring,
    ``docs/*.md`` or ``README.md`` exists neither under the repository root
    nor under ``src/repro/`` — unless the mention itself says the file is gone
    (``(deleted…``, ``(moved…`` or ``(historical…`` right after the path).
    ``CHANGES.md`` and ``ROADMAP.md`` are logs of what used to be and are not
    scanned;
15. a public definition in ``src/repro`` has no read in ``src/``,
    ``examples/``, ``benchmarks/`` or ``tools/`` — a package ``__init__``'s
    re-export and anything under ``tests/`` do not count.  A name in a
    module's ``__all__`` needs an ``ast.Name``, ``ast.Attribute`` or import
    of it outside that module; a name in a subpackage ``__init__``'s
    ``__all__`` (a re-export) needs a read *through the package* —
    ``from repro.<pkg> import name`` or ``repro.<pkg>.name`` — outside
    package ``__init__`` files (the top-level ``repro`` package, the
    documented library surface, aside); any
    other public module-level function or class, and every public method or
    property of a public class, needs a read outside its own body, an
    identifier-shaped string (``getattr``'s ``"attr"``, the perf span table's
    ``"module:Class.attr"``) included.  So does every public value a public
    class stores — an annotated class-body field (a dataclass's) or a
    ``self.<name>`` one of its methods assigns — outside the lines that store
    it; an assignment, a keyword argument or ``+=`` is a write, not a read.
    A read inside rejected code does not count.
    ``repro.api.__all__`` (the pinned facade) and those classes' members
    pass as is; every other exception is an ``EXPORT_ALLOWLIST``
    entry with its reason (a class's entry covers its members), and an entry
    whose name is gone or now used fails;
16. an option in ``src/repro`` has no setter in those same roots — a
    default-valued parameter of a public function, or of a public method or
    ``__init__`` of a public class, or a defaulted field of a public
    dataclass (``field(default_factory=list|dict|set)`` containers aside)
    needs a call of its name that passes it: by keyword, at its position, or
    through ``*args`` / ``**kwargs``.  ``cls(…)`` and ``super().__init__(…)``
    call the class they are written in and its bases, and pytest-benchmark's
    ``benchmark(fn, …)`` calls ``fn``; a field is also set by an attribute
    store of its name (its own class's ``self.name = …`` outside
    ``__post_init__``) or a ``dataclasses.replace`` that passes it.  Facade
    names pass as in 15; every other exception is a ``SETTER_ALLOWLIST``
    entry with its reason, and an entry whose option is gone or now set fails.

Run from the repository root:

.. code-block:: bash

   PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import json
import pkgutil
import re
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"


def _ensure_importable() -> None:
    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))


def check_module_docstrings() -> list[str]:
    """Every public module under src/repro must open with a docstring."""
    problems = []
    for path in sorted(SRC_ROOT.glob("repro/**/*.py")):
        rel = path.relative_to(REPO_ROOT)
        if path.name != "__init__.py" and path.name.startswith("_"):
            continue  # private helper modules are exempt
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            problems.append(f"{rel}: public module lacks a module docstring")
    return problems


def check_readme_benchmarks() -> list[str]:
    """README's benchmark table and benchmarks/ must reference each other."""
    problems = []
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", readme))
    existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    for name in sorted(referenced - existing):
        problems.append(f"README.md references nonexistent benchmark file benchmarks/{name}")
    for name in sorted(existing - referenced):
        problems.append(f"benchmarks/{name} is not mentioned in README.md's benchmark map")
    return problems


#: How the reference table spells the two non-scalar field types.
_DOC_TYPES = {"tuple[int, ...]": "list[int]", "int | None": "int or null"}


def check_scenario_reference() -> list[str]:
    """docs/scenarios.md must carry every ScenarioSpec field's declared type and default."""
    _ensure_importable()
    from dataclasses import fields

    from repro.runner.scenario import ScenarioSpec

    problems = []
    doc = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
    rows = {
        name: (type_.strip(), default)
        for name, type_, default in re.findall(
            r"^\| `(\w+)` \| ([^|]+) \| `([^`]*)` \|", doc, re.M
        )
    }
    for f in fields(ScenarioSpec):
        default = list(f.default) if isinstance(f.default, tuple) else f.default
        declared = (_DOC_TYPES.get(f.type, f.type), json.dumps(default))
        if f.name not in rows:
            problems.append(f"docs/scenarios.md does not document ScenarioSpec field {f.name!r}")
        elif rows[f.name] != declared:
            problems.append(
                f"docs/scenarios.md documents {f.name!r} as (type, default) = "
                f"{rows[f.name]}, the declaration says {declared}"
            )
    return problems


def check_example_scenarios() -> list[str]:
    """Every example scenario file must load and validate."""
    _ensure_importable()
    from repro.runner.scenario import ScenarioError, load_scenario_file

    problems = []
    scenario_dir = REPO_ROOT / "scenarios"
    files = sorted(
        list(scenario_dir.glob("*.json")) + list(scenario_dir.glob("*.toml"))
    )
    if not files:
        problems.append("scenarios/ contains no example scenario files")
    for path in files:
        try:
            specs = load_scenario_file(path)
        except ScenarioError as exc:
            problems.append(f"{path.relative_to(REPO_ROOT)}: {exc}")
            continue
        if not specs:
            problems.append(f"{path.relative_to(REPO_ROOT)}: expands to zero scenarios")
    return problems


def check_axis_coverage() -> list[str]:
    """Every round-mode, attack, defense, and topology name must appear in the axis docs.

    The value lists are the ``choices`` the axis fields declare on
    ``ScenarioSpec`` — ``defense`` is a ``+``-chain grammar rather than a
    choice, so its vocabulary is ``DEFENSES`` — and the ``partition`` /
    ``churn`` net axis names are checked literally, in backticks; a new axis
    value cannot land without a mention in both the scenario reference and
    the threat-model guide.
    """
    _ensure_importable()
    from repro.fl.robust import DEFENSES
    from repro.runner.scenario import ScenarioSpec

    declared = ScenarioSpec.__dataclass_fields__
    axes = {
        name: declared[name].metadata["choices"]
        for name in ("round_mode", "attack_name", "topology")
    }
    axes.update({"defense": DEFENSES, "net axis": ("`partition`", "`churn`")})
    required_docs = ("docs/scenarios.md", "docs/threat_model.md")
    problems = []
    for rel in required_docs:
        path = REPO_ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: axis-reference document is missing")
            continue
        text = path.read_text(encoding="utf-8")
        for axis, values in axes.items():
            for value in values:
                if not re.search(rf"(?<!\w){re.escape(value)}(?!\w)", text):
                    problems.append(f"{rel} does not document {axis} value {value!r}")
    return problems


def check_system_coverage() -> list[str]:
    """Every registered system name must appear in the scenario and API docs.

    The name list comes from the registry, so a new built-in system cannot
    land without a mention in both ``docs/scenarios.md`` and ``docs/api.md``
    (plugins loaded at run time are intentionally out of scope — only what
    ships registered is checked).
    """
    _ensure_importable()
    from repro.systems import system_names

    required_docs = ("docs/scenarios.md", "docs/api.md")
    problems = []
    for rel in required_docs:
        path = REPO_ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: system-reference document is missing")
            continue
        text = path.read_text(encoding="utf-8")
        for name in system_names():
            if not re.search(rf"\b{re.escape(name)}\b", text):
                problems.append(f"{rel} does not document registered system {name!r}")
    return problems


def check_cli_flag_coverage() -> list[str]:
    """Every CLI flag (all subcommands) must appear in the docs/cli_help.txt snapshot."""
    _ensure_importable()
    import argparse

    from repro.cli import build_parser

    snapshot_path = REPO_ROOT / "docs" / "cli_help.txt"
    if not snapshot_path.exists():
        return ["docs/cli_help.txt: CLI help snapshot is missing"]
    snapshot = snapshot_path.read_text(encoding="utf-8")

    def walk(parser: argparse.ArgumentParser):
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    yield option
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from walk(sub)

    problems = []
    for option in sorted(set(walk(build_parser()))):
        if option not in snapshot:
            problems.append(
                f"docs/cli_help.txt does not mention CLI flag {option}; regenerate with "
                "REGEN_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_docs_tooling.py"
            )
    return problems


def check_benchmark_docs() -> list[str]:
    """docs/benchmarks.md must catalogue every bench file (and only real ones).

    The catalogue is the authoritative map from bench file to the paper
    figure/table it reproduces (plus runtime class and smoke-marker status),
    so a bench cannot land undocumented and a deleted bench cannot linger in
    the docs.
    """
    problems = []
    doc_path = REPO_ROOT / "docs" / "benchmarks.md"
    if not doc_path.exists():
        return ["docs/benchmarks.md: benchmark catalogue is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    referenced = set(re.findall(r"\b(bench_\w+\.py)\b", doc))
    existing = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    for name in sorted(existing - referenced):
        problems.append(f"docs/benchmarks.md does not document benchmarks/{name}")
    for name in sorted(referenced - existing):
        problems.append(f"docs/benchmarks.md references nonexistent benchmark file {name}")
    return problems


def check_api_reference() -> list[str]:
    """Every ``repro.api.__all__`` name must be in docs/api.md and documented.

    Two failures per name are possible: the public-API reference does not
    mention it, or the object itself lacks a docstring (the facade is the
    surface downstream users introspect, so ``help()`` must never come up
    empty).
    """
    _ensure_importable()
    from repro import api

    problems = []
    doc_path = REPO_ROOT / "docs" / "api.md"
    if not doc_path.exists():
        return ["docs/api.md: public-API reference is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    for name in api.__all__:
        if not re.search(rf"\b{re.escape(name)}\b", doc):
            problems.append(f"docs/api.md does not document repro.api.{name}")
        obj = getattr(api, name)
        if not (getattr(obj, "__doc__", None) or "").strip():
            problems.append(f"repro.api.{name} has no docstring")
    return problems


def check_cli_subcommand_docs() -> list[str]:
    """Every CLI subcommand must appear in README.md or docs/api.md usage text.

    The flag-level snapshot (check 7) proves the help text is fresh; this
    check proves each *verb* is discoverable — somewhere a user actually
    reads, a ``repro <verb>`` (or ``python -m repro.cli <verb>``) invocation
    must exist.  Adding a subcommand without documenting how to call it
    fails here.
    """
    _ensure_importable()
    import argparse

    from repro.cli import build_parser

    sources = []
    for rel in ("README.md", "docs/api.md"):
        path = REPO_ROOT / rel
        if path.exists():
            sources.append(path.read_text(encoding="utf-8"))
    text = "\n".join(sources)

    commands: list[str] = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.extend(action.choices)

    problems = []
    for command in sorted(set(commands)):
        if not re.search(rf"\brepro(?:\.cli)?\s+{re.escape(command)}\b", text):
            problems.append(
                f"CLI subcommand {command!r} is not shown in README.md or docs/api.md "
                f"(add a 'repro {command}' usage example)"
            )
    return problems


def check_serve_endpoint_docs() -> list[str]:
    """Every declared HTTP endpoint must appear in docs/serve.md.

    The wire contract lives in ``repro.serve.protocol.ENDPOINTS``; the
    service reference must show each endpoint's method + path template and
    mention its name, so a new route cannot land undocumented.
    """
    _ensure_importable()
    from repro.serve.protocol import ENDPOINTS

    doc_path = REPO_ROOT / "docs" / "serve.md"
    if not doc_path.exists():
        return ["docs/serve.md: experiment-service reference is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    problems = []
    for endpoint in ENDPOINTS.values():
        if endpoint.path not in doc:
            problems.append(
                f"docs/serve.md does not document endpoint {endpoint.method} "
                f"{endpoint.path} ({endpoint.name})"
            )
        elif not re.search(rf"\b{re.escape(endpoint.name)}\b", doc):
            problems.append(
                f"docs/serve.md documents {endpoint.path} but never names the "
                f"{endpoint.name!r} endpoint"
            )
    return problems


_ROLE_TARGET = re.compile(r":(?:class|mod|func|meth|attr|data|exc):`~?(repro(?:\.\w+)*)`")
#: A plain-backticked dotted name in Markdown: ```repro.store.keys.spec_key``` (``()`` aside).
_DOC_PATH = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")


def _resolves(target: str) -> bool:
    """Whether dotted ``target`` names an importable module or an attribute chain on one."""
    try:
        pkgutil.resolve_name(target)
    except (ImportError, AttributeError):
        return False
    return True


def _prose_sources() -> list[Path]:
    """Where prose can point at code: every ``src/`` module, ``docs/*.md`` and the README."""
    return (
        sorted(SRC_ROOT.glob("**/*.py"))
        + sorted((REPO_ROOT / "docs").glob("*.md"))
        + [REPO_ROOT / "README.md"]
    )


def check_cross_references() -> list[str]:
    """Every ``:role:`repro.…``` target in src docstrings and the docs, and
    every plain-backticked ```repro.…``` name in ``docs/*.md`` and the README,
    must resolve.

    The targets are resolved the way Sphinx would — import the longest module
    prefix, then ``getattr`` the rest — so prose that still points at a
    deleted class, a moved function, a renamed method or a deleted package
    re-export is caught here instead of rotting silently (nothing else in the
    repo renders the roles).
    """
    _ensure_importable()
    problems = []
    for path in _prose_sources():
        text = path.read_text(encoding="utf-8")
        targets = set(_ROLE_TARGET.findall(text))
        if path.suffix == ".md":
            targets |= set(_DOC_PATH.findall(text))
        for target in sorted(targets):
            if not _resolves(target):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: cross-reference target {target!r} "
                    "does not resolve"
                )
    return problems


#: A ``dir/…/file.py`` mention, and whether the text right after it marks it historical.
_PY_PATH = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)+[\w-]+\.py)\b`?(\s*\((?:deleted|moved|historical)\b)?")


def check_path_references() -> list[str]:
    """Every ``dir/file.py`` the prose names must exist (repo root or ``src/repro/``).

    Deleting or moving a module leaves comments and docs pointing at the old
    file; nothing renders or imports those mentions, so this is the only
    thing that notices.  A mention that says so itself — ``(deleted``,
    ``(moved`` or ``(historical`` directly after the path — is history, not
    a dangling pointer.
    """
    problems = []
    roots = (REPO_ROOT, SRC_ROOT / "repro")
    for path in _prose_sources():
        text = path.read_text(encoding="utf-8")
        for match in _PY_PATH.finditer(text):  # whole text: the marker may wrap onto the next line
            mentioned, historical = match.groups()
            if not historical and not any((root / mentioned).exists() for root in roots):
                lineno = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: path {mentioned!r} does not "
                    "exist (fix the pointer, or mark it '(deleted …)' / '(moved …)')"
                )
    return problems


#: Packages the trainers are built from, and the packages that drive trainers.
LOWER_LAYERS = (
    "utils", "nn", "datasets", "crypto", "sim", "blockchain", "net", "fl",
    "incentive", "attacks", "core",
)
UPPER_LAYERS = ("runner", "systems", "store", "search", "serve", "api", "cli")


def check_layering() -> list[str]:
    """No module of a lower layer may import an upper one (``TYPE_CHECKING`` included).

    Parsed from the source, not imported: a guarded or function-local import
    is still a dependency of the layer, and still the start of a cycle.
    """
    upper = re.compile(rf"repro\.({'|'.join(UPPER_LAYERS)})(\.|$)")
    problems = []
    for layer in LOWER_LAYERS:
        for path in sorted((SRC_ROOT / "repro" / layer).glob("**/*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                offending = [name for name in imported if upper.match(name)]
                if offending:  # one problem per import statement
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: lower layer "
                        f"{layer!r} imports upper layer {', '.join(offending)}"
                    )
    return problems


#: Where a reference to a definition counts as a use.  ``tests/`` is not
#: here: a name that only tests reach is dead code with a test attached.
USE_ROOTS = ("src", "examples", "benchmarks", "tools")

#: ``"module:name"`` or ``"module:Class.attr"`` → why a definition with no use
#: stays.  An allow-listed class's methods pass too.  An entry whose name is
#: gone or has gained a use is stale.
EXPORT_ALLOWLIST: dict[str, str] = {
    "repro.crypto.rsa:rsa_sign": (
        "plain-exponent reference that tests hold the CRT signing of KeyStore to"
    ),
    "repro.fl.cohort:CohortTrainer.shared_bytes": (
        "CI's streaming-round memory bound counts the helpers' shared buffers "
        "through it; tracemalloc cannot see them"
    ),
    "repro.serve.protocol:Endpoint.description": (
        "documentation: the endpoint table's prose, written for the reader of the source"
    ),
    "repro.crypto.rsa:RSAKeyPair.private_exponent": (
        "the plain (n, d) key the rsa_sign reference signs with, which tests hold "
        "the CRT signing to"
    ),
    "repro.sim.rounds:RoundTiming.late_ids": (
        "the round-mode tests' oracle: they check the upload window against it"
    ),
    "repro.sim.rounds:ClientArrival.arrival": (
        "the round-mode tests' oracle: they check the upload window against it"
    ),
}

#: ``"module:callable(option)"`` → why an option no caller sets stays (see
#: :func:`_options`).  An entry whose option is gone or has gained a setter
#: is stale.
SETTER_ALLOWLIST: dict[str, str] = {
    "repro.core.convergence:theorem31_constants(variance_bound)": (
        "Theorem 3.1's B term, the aggregate sigma_i^2 of Assumption 5: the bound "
        "states the theorem in full; the benchmark runs its exact-gradient case"
    ),
    "repro.fl.cohort:CohortTrainer(max_cohort_size)": (
        "tests shrink it to force multi-chunk rounds at test scale"
    ),
    "repro.incentive.clustering:KMeans(metric)": (
        "Euclidean k-means on unit rows is the reference tests hold the cosine "
        "path to, byte for byte"
    ),
    "repro.incentive.clustering:make_clusterer(num_clusters)": (
        "k of Algorithm 2's kmeans variant: tests hold the in-place round to the "
        "whole-array kernels at several k"
    ),
}

#: Module-level assignments that list names rather than read them.
_DECLARATIONS = ("__all__", "EXPORT_ALLOWLIST", "SETTER_ALLOWLIST")

#: A string constant that names code: ``getattr``'s ``"attr"``, a dotted
#: module, or the perf span table's ``"module:Class.attr"``.
_CODE_STRING = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


def _declaration(node: ast.stmt) -> str | None:
    """The one name a module-level ``x = …`` or ``x: T = …`` statement binds."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _module_all(tree: ast.Module) -> list[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if _declaration(node) == "__all__" and isinstance(node.value, (ast.List, ast.Tuple)):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


#: A name → the ``(line, kind)`` of each read of it in one file.
Reads = dict[str, list[tuple[int, str]]]

#: The read kinds that reach a definition: an ``__all__`` name is named,
#: imported or read as an attribute; any other module-level definition is
#: reached any way; a method only as an attribute or by string.
_EXPORT_READS = frozenset({"name", "attribute", "import"})
_DEFINITION_READS = _EXPORT_READS | {"string"}
_METHOD_READS = frozenset({"attribute", "string"})
_REEXPORT_READS = frozenset({"qualified"})  # read by its qualified name: through the package


#: A callee name → the ``(positional, keywords)`` of each call of it in one
#: file: how many arguments it passes by position (a ``*args`` passes them
#: all) and the names it passes by keyword (``"**"``: a ``**kwargs``
#: pass-through).
Calls = dict[str, list[tuple[int, frozenset[str]]]]


class _Uses(NamedTuple):
    """What one file does with the names it mentions."""

    reads: Reads
    calls: Calls
    stores: frozenset[str]  # attributes it assigns: ``name``; ``Class.name`` for ``self.name``


def _callees(call: ast.Call, owner: ast.ClassDef | None) -> Iterator[tuple[str, list[ast.expr]]]:
    """Each name a call reaches, with the arguments it passes by position.

    ``name(…)`` and ``x.name(…)`` reach ``name``; inside a class, ``cls(…)``
    reaches the class and ``super().__init__(…)`` its bases; and
    pytest-benchmark's ``benchmark(fn, *args, **kwargs)`` reaches ``fn``.
    """
    func, args = call.func, call.args
    if isinstance(func, ast.Name) and func.id == "benchmark" and args:
        func, args = args[0], args[1:]
    if isinstance(func, ast.Name):
        yield (owner.name if func.id == "cls" and owner else func.id), args
    elif not isinstance(func, ast.Attribute):
        return
    elif (
        func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
        and owner
    ):
        for base in owner.bases:
            if isinstance(base, (ast.Name, ast.Attribute)):
                yield (base.id if isinstance(base, ast.Name) else base.attr), args
    else:
        yield func.attr, args


def _uses(tree: ast.Module, *, package_init: bool) -> _Uses:
    """Every read, call and attribute store in a module.

    A read is an ``ast.Name`` or ``ast.Attribute`` load, an import, or each
    part of an identifier-shaped string constant.  ``from m import x`` and
    ``repro.pkg.x`` are also reads of the qualified ``"m.x"`` /
    ``"repro.pkg.x"``, which is how a package re-export is reached.  Bindings (a definition, an assignment target) are
    not reads, nor are the entries of :data:`_DECLARATIONS`, and a package
    ``__init__``'s imports are re-exports, not uses.
    """
    declared = {
        id(const)
        for node in tree.body
        if _declaration(node) in _DECLARATIONS
        for const in ast.walk(node.value)
    }
    owners = {  # ast.walk is breadth-first: an inner class overwrites its outer one
        id(node): cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
    }
    post_init = {  # a dataclass normalising its own field there sets no option
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
    }
    reads: Reads = {}
    calls: Calls = {}
    stores: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords = frozenset(k.arg or "**" for k in node.keywords)
            for name, args in _callees(node, owners.get(id(node))):
                starred = any(isinstance(arg, ast.Starred) for arg in args)
                positional = sys.maxsize if starred else len(args)
                calls.setdefault(name, []).append((positional, keywords))
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names, kind = [node.id], "name"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            package = node.value
            if isinstance(package, ast.Attribute) and ast.unparse(package.value) == "repro":
                qualified = f"repro.{package.attr}.{node.attr}"
                reads.setdefault(qualified, []).append((node.lineno, "qualified"))
            names, kind = [node.attr], "attribute"
        elif isinstance(node, ast.Attribute):
            mine = isinstance(node.value, ast.Name) and node.value.id == "self"
            owner = owners.get(id(node))
            if not (mine and id(node) in post_init):
                stores.add(f"{owner.name}.{node.attr}" if mine and owner else node.attr)
            continue
        elif isinstance(node, ast.ImportFrom) and not package_init:
            names, kind = [alias.name for alias in node.names], "import"
            for alias in node.names if node.level == 0 else ():
                reads.setdefault(f"{node.module}.{alias.name}", []).append(
                    (node.lineno, "qualified")
                )
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in declared
            and _CODE_STRING.fullmatch(node.value)
        ):
            names, kind = re.split(r"[.:]", node.value), "string"
        else:
            continue
        for name in names:
            reads.setdefault(name, []).append((node.lineno, kind))
    return _Uses(reads, calls, frozenset(stores))


def _module_name(path: Path) -> str:
    """The dotted module a ``src/`` file defines (a package for an ``__init__``)."""
    parts = path.relative_to(SRC_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _span(node: ast.stmt) -> range:
    """The lines a definition covers, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


class _Definition(NamedTuple):
    """One public definition the use rules check."""

    module: str
    qualname: str  # ``name`` or ``Class.attr``
    path: Path
    spans: list[range]  # its lines; none for an ``__all__`` name bound by assignment
    kinds: frozenset[str]  # the read kinds that reach it
    own_file: bool  # whether a read in its own file, outside ``spans``, counts

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def read_as(self) -> str:
        """The name its reads are indexed under (see :func:`_uses`)."""
        if self.kinds == _REEXPORT_READS:
            return f"{self.module}.{self.qualname}"
        return self.qualname.rpartition(".")[2]

    @property
    def owner(self) -> str | None:
        """The key of the class a method belongs to."""
        cls = self.qualname.rpartition(".")[0]
        return f"{self.module}:{cls}" if cls else None


def _stored_attributes(cls: ast.ClassDef) -> Iterator[tuple[str, range]]:
    """Each value a class stores, with the lines that store it: its annotated
    class-body fields (a dataclass's) and every ``self.<name>`` a method of
    it assigns (``=``, ``: T =``, ``+=``)."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id, range(item.lineno, item.end_lineno + 1)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.args.args:
            me = item.args.args[0].arg
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == me
                ):
                    yield node.attr, range(node.lineno, node.end_lineno + 1)


def _definitions(path: Path, module: str, facade: set[str]) -> Iterator[_Definition]:
    """The definitions of one ``src/repro`` module that need a read.

    Each ``__all__`` name (a subpackage ``__init__``'s read through the
    package; the top-level ``repro`` package's none); each other public
    module-level function and class; and each public method, property or
    stored value (:func:`_stored_attributes`) of a public class outside the
    facade (a method defined twice, a property and its setter, or a value
    stored in two places, has two spans).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    package = path.name == "__init__.py"
    exported = [] if module == "repro" else _module_all(tree)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    spans: dict[str, list[range]] = {}
    for node in tree.body:
        if not isinstance(node, (*kinds, ast.ClassDef)) or node.name.startswith("_"):
            continue
        spans[node.name] = [_span(node)]
        if isinstance(node, ast.ClassDef) and node.name not in facade:
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    spans.setdefault(f"{node.name}.{item.name}", []).append(_span(item))
            for name, lines in _stored_attributes(node):
                if not name.startswith("_"):
                    spans.setdefault(f"{node.name}.{name}", []).append(lines)
    for name in exported:
        if package:  # the facade is repro.api, not a second path through a package
            yield _Definition(module, name, path, spans.get(name, []), _REEXPORT_READS, False)
        elif name not in facade:
            yield _Definition(module, name, path, spans.get(name, []), _EXPORT_READS, False)
    for qualname, lines in spans.items():
        if qualname not in exported and qualname not in facade:
            reads = _METHOD_READS if "." in qualname else _DEFINITION_READS
            yield _Definition(module, qualname, path, lines, reads, True)


class _Option(NamedTuple):
    """One default-valued parameter or dataclass field the setter rule checks."""

    key: str  # ``module:callable(name)``; a method's callable is ``Class.method``
    callee: str  # the name its callers call: the function, method or class
    name: str
    position: int | None  # its index among the positional arguments; None: keyword-only
    field: bool  # a dataclass field, which an attribute store sets too
    where: str  # ``path:line``


#: ``field(default_factory=…)`` factories of state containers, not options.
_CONTAINERS = frozenset({"list", "dict", "set"})


def _parameters(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, *, bound: bool
) -> Iterator[tuple[str, int | None, int]]:
    """Each default-valued parameter of ``fn`` as ``(name, position, line)``;
    ``bound`` drops the ``self``/``cls`` a method's callers do not pass."""
    positional = fn.args.posonlyargs + fn.args.args
    if bound and not any(_named(d) == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    for position, arg in enumerate(positional[first:], first):
        yield arg.arg, position, arg.lineno
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, arg.lineno


def _named(node: ast.expr) -> str | None:
    """The name a decorator, base or callee expression ends in."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _fields(cls: ast.ClassDef) -> Iterator[tuple[str, int, int]]:
    """Each defaulted field of a dataclass as ``(name, position, line)``,
    ``field(default_factory=list|dict|set)`` containers aside."""
    position = 0
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _named(value) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            factory = options.get("default_factory")
            if "default" not in options and (factory is None or _named(factory) in _CONTAINERS):
                value = None
        if value is not None:
            yield item.target.id, position, item.lineno
        position += 1


def _options(path: Path, module: str, facade: set[str]) -> Iterator[_Option]:
    """The options of one ``src/repro`` module: each default-valued parameter
    of a public function, or of a public method or ``__init__`` of a public
    class, and each defaulted field of a public dataclass; facade names aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    where = path.relative_to(REPO_ROOT)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name in facade:
            continue
        # (qualname, entries, field): ``__init__``'s parameters are the class's.
        if isinstance(node, functions):
            groups = [(node.name, _parameters(node, bound=False), False)]
        elif any(_named(d) == "dataclass" for d in node.decorator_list):
            groups = [(node.name, _fields(node), True)]
        else:
            groups = []
        if isinstance(node, ast.ClassDef):
            groups += [
                (
                    node.name if item.name == "__init__" else f"{node.name}.{item.name}",
                    _parameters(item, bound=True),
                    False,
                )
                for item in node.body
                if isinstance(item, functions)
                and (item.name == "__init__" or not item.name.startswith("_"))
            ]
        for qualname, entries, field in groups:
            callee = qualname.rpartition(".")[2]
            for name, position, line in entries:
                key = f"{module}:{qualname}({name})"
                yield _Option(key, callee, name, position, field, f"{where}:{line}")


def _unset_options(uses: dict[Path, _Uses], facade: set[str]) -> list[str]:
    """The setter rule: an option needs a call that passes it.

    A call of the same name (see :func:`_callees`) sets an option it passes
    by keyword or at its position, or through ``*args`` / ``**kwargs``.  A
    dataclass field is set too by an attribute store of its name (a
    ``self.name = …`` only inside the dataclass itself, ``__post_init__``
    aside) and by a ``dataclasses.replace`` call that passes it.
    """
    options = [
        option
        for path in sorted(SRC_ROOT.glob("repro/**/*.py"))
        for option in _options(path, _module_name(path), facade)
    ]

    def set_(o: _Option) -> bool:
        return any(
            (o.field and not use.stores.isdisjoint({o.name, f"{o.callee}.{o.name}"}))
            or (o.field and any(o.name in kw for _, kw in use.calls.get("replace", ())))
            or any(
                o.name in keywords
                or "**" in keywords
                or (o.position is not None and positional > o.position)
                for positional, keywords in use.calls.get(o.callee, ())
            )
            for use in uses.values()
        )

    problems = []
    for o in options:
        if o.key in SETTER_ALLOWLIST:
            if set_(o):
                problems.append(f"setter allow-list entry {o.key!r} is stale: a caller sets it")
        elif not set_(o):
            problems.append(
                f"{o.where}: option {o.key!r} has a default that nothing in "
                f"{', '.join(USE_ROOTS)} overrides (fold it into a constant, or "
                "allow-list it with a reason)"
            )
    for key in sorted(SETTER_ALLOWLIST.keys() - {o.key for o in options}):
        problems.append(f"setter allow-list entry {key!r} is stale: no such option")
    return problems


def check_exports() -> list[str]:
    """Every public definition in ``src/repro`` needs a live read outside its own body.

    Reads come from ``src/``, ``examples/``, ``benchmarks/`` and ``tools/``
    (see :data:`USE_ROOTS`), one index for three rules:

    * an ``__all__`` name needs a read by name, attribute or import in a
      file other than its module; in a subpackage ``__init__`` (a re-export)
      that read must go through the package, ``from repro.<pkg> import
      name`` or ``repro.<pkg>.name`` (the top-level ``repro`` package is the
      documented library surface and is not checked);
    * any other public module-level function or class needs a read of any
      kind outside its own body, an identifier-shaped string included
      (``getattr``'s ``"attr"``, the perf span table's ``"module:Class.attr"``);
    * a public method, property or stored value of a public class needs an
      attribute or string read outside its own body (a value: outside the
      lines that store it).

    A read inside a definition these rules reject is not live, so a helper
    only dead code calls is rejected with it, and definitions that read only
    each other are rejected together.  ``repro.api.__all__`` is the
    pinned facade: those names, and the methods of those classes, pass as is.
    Any other exception is an :data:`EXPORT_ALLOWLIST` entry with its reason;
    an allow-listed class's methods pass too.
    """
    api = SRC_ROOT / "repro" / "api.py"
    facade = set(_module_all(ast.parse(api.read_text(encoding="utf-8"))))
    uses: dict[Path, _Uses] = {}
    for root in USE_ROOTS:
        for path in sorted((REPO_ROOT / root).glob("**/*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            uses[path] = _uses(tree, package_init=path.name == "__init__.py")
    definitions = [
        definition
        for path in sorted(SRC_ROOT.glob("repro/**/*.py"))
        for definition in _definitions(path, _module_name(path), facade)
    ]

    def allowed(d: _Definition) -> bool:
        return d.key in EXPORT_ALLOWLIST or d.owner in EXPORT_ALLOWLIST

    def used(d: _Definition, dead: dict[Path, list[range]]) -> bool:
        return any(
            kind in d.kinds
            and (other != d.path or (d.own_file and not any(line in s for s in d.spans)))
            and not any(line in s for s in dead.get(other, ()))
            for other, use in uses.items()
            for line, kind in use.reads.get(d.read_as, ())
        )

    # Dead code does not keep what it reads alive: start with every definition
    # unused and shrink to a fixed point, so a cycle of reads keeps nothing alive.
    unused = {d.key for d in definitions if not allowed(d)}
    while True:
        dead: dict[Path, list[range]] = {}
        for d in definitions:
            if d.key in unused:
                dead.setdefault(d.path, []).extend(d.spans)
        found = {d.key for d in definitions if not allowed(d) and not used(d, dead)}
        if found == unused:
            break
        unused = found

    problems = []
    for d in definitions:
        where = d.path.relative_to(REPO_ROOT)
        if d.key in EXPORT_ALLOWLIST:
            if used(d, dead):
                problems.append(f"export allow-list entry {d.key!r} is stale: the name is used")
        elif d.key not in unused or d.owner in unused:
            continue  # a method of an unused class goes with it
        elif d.kinds == _REEXPORT_READS:
            problems.append(
                f"{where}: {d.qualname!r} is re-exported in __all__ but nothing in "
                f"{', '.join(USE_ROOTS)} imports it through {d.module} (import it from "
                "its defining module and delete the re-export, or allow-list it with a reason)"
            )
        elif not d.own_file:
            problems.append(
                f"{where}: {d.qualname!r} is in __all__ but nothing in "
                f"{', '.join(USE_ROOTS)} outside its module uses it (use it, delete it, "
                "or allow-list it with a reason)"
            )
        else:
            problems.append(
                f"{where}:{d.spans[0].start}: {d.qualname!r} is public but nothing in "
                f"{', '.join(USE_ROOTS)} reads it outside its own body or dead code "
                "(use it, delete it, or allow-list it with a reason)"
            )
    for key in sorted(EXPORT_ALLOWLIST.keys() - {d.key for d in definitions}):
        problems.append(f"export allow-list entry {key!r} is stale: no module exports that name")
    return problems + _unset_options(uses, facade)


def main() -> int:
    problems = (
        check_module_docstrings()
        + check_readme_benchmarks()
        + check_scenario_reference()
        + check_example_scenarios()
        + check_axis_coverage()
        + check_system_coverage()
        + check_cli_flag_coverage()
        + check_benchmark_docs()
        + check_api_reference()
        + check_cli_subcommand_docs()
        + check_serve_endpoint_docs()
        + check_cross_references()
        + check_layering()
        + check_path_references()
        + check_exports()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        print(f"docs-check: {len(problems)} problem(s) found", file=sys.stderr)
        return 1
    print("docs-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
