"""Declarative experiment scenarios.

A :class:`ScenarioSpec` is the single description of one experiment: which
system runs (FAIR-BFL, a baseline, or the vanilla blockchain), the workload
shape (clients, samples, rounds, partitioning), the algorithmic knobs
(strategy, flexibility mode, attack/defense mix, incentive parameters) and the
execution backend.  Scenarios are plain data — they can be written as JSON or
TOML files, swept as cartesian grids through :class:`ScenarioMatrix`, and
executed by :class:`repro.runner.engine.ExperimentEngine` — so every benchmark
and CLI subcommand drives through one engine instead of hand-rolled wiring.

The :class:`ScenarioSpec` dataclass is also the one *table* of scenario
fields: a field that has a validation rule or a command-line flag declares
it in its own ``dataclasses.field(metadata=...)`` (see :func:`_declare`), and
:meth:`ScenarioSpec.validate`, ``repro.cli.add_spec_flags`` and
``tools/check_docs.py`` are loops over those declarations — adding a field is
one declaration, not an edit per consumer.

The spec is also the *only* configuration a run has: the registered system
hands it to its trainer, which reads the fields directly.  A spec is checked
once, when it is built: ``__post_init__`` coerces every field to its
declared type (an integral number to ``int``, a real one to ``float``, a
list to a tuple) and then runs :meth:`ScenarioSpec.validate`, so the
constructor, ``with_overrides``/``dataclasses.replace``, ``from_mapping``
and matrix expansion all apply the same rules, and no consumer checks a spec
again (``validate()`` on a built spec is a re-check that returns it).
Validation has three layers: the declared per-field rules (applied for every
system), the capability-derived axis checks of the system registry
(:mod:`repro.systems.registry` — ``round_mode``/``attacks``/``defense`` only
where the registered system supports them), and the registered system's own
``validate(spec)``, so a plugin-registered system validates exactly like a
built-in.  A rule that reads one field lives on that field and nowhere else
(the components a trainer builds from a spec do not check it again); a
system's ``validate`` holds only the rules that read several fields
(FAIR-BFL's attacker bounds and network rules).  All scenario problems are
raised as :class:`ScenarioError` (a :class:`ValueError`) with the offending
field named.

See ``docs/scenarios.md`` for the field-by-field reference and
``scenarios/`` for example files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from functools import partial
from numbers import Integral, Real
from pathlib import Path

from repro.attacks.gradient_attacks import ATTACKS
from repro.core.flexibility import OperatingMode
from repro.fl.client import LocalTrainingConfig
from repro.fl.cohort import EXECUTOR_BACKENDS
from repro.fl.robust import DEFENSES, check_defense
from repro.incentive.clustering import CLUSTERERS
from repro.incentive.strategies import STRATEGIES
from repro.net.topology import TOPOLOGIES
from repro.nn.models import MODELS
from repro.sim.rounds import ROUND_MODES
from repro.systems.registry import SystemRegistryError, check_spec_axes, get_system
from repro.utils.validation import (
    check_choice,
    check_finite,
    check_fraction,
    check_minority,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "ScenarioMatrix",
    "scenarios_from_mapping",
    "load_scenario_file",
]


class ScenarioError(ValueError):
    """A scenario file or mapping is malformed or fails validation."""


def _declare(default, *, choices=None, check=None, flag=None, help=None, cli_default=None):
    """Declare one :class:`ScenarioSpec` field's rule and command-line form, once.

    ``choices`` (membership) or ``check`` (a :mod:`repro.utils.validation`
    helper, called as ``check(field_name, value)``) is the field's validation
    rule, applied by :meth:`ScenarioSpec.validate` for every system.
    ``flag``/``help`` are its ``repro run``/``compare`` option, built by
    ``repro.cli.add_spec_flags``; ``cli_default`` is a command-line-only
    default (the CLI runs a smaller workload than a bare scenario file).
    Name, type and default stay the dataclass field itself.
    """
    declared = dict(choices=choices, check=check, flag=flag, help=help, cli_default=cli_default)
    return field(default=default, metadata={k: v for k, v in declared.items() if v is not None})


def _check_each_positive(name: str, values: tuple) -> None:
    for value in values:
        check_positive(name, value)


def _check_defense_chain(name: str, value: str) -> None:
    check_defense(value)


def _check_difficulty(name: str, value: float) -> None:
    if not 1.0 <= check_finite(name, value):
        raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified experiment (see ``docs/scenarios.md``).

    The defaults are laptop-scale: a scenario that sets nothing but
    ``system`` runs the benchmark harness's baseline workload.  A field's
    rule and flag are declared on the field (:func:`_declare`).
    """

    # -- identity -------------------------------------------------------
    name: str = "scenario"
    system: str = "fairbfl"
    seed: int = _declare(0, flag="--seed", help="master experiment seed")
    # -- workload shape -------------------------------------------------
    num_clients: int = _declare(
        20,
        check=check_positive,
        flag="--clients",
        help="number of federated clients (n)",
        cli_default=12,
    )
    num_samples: int = _declare(
        1500,
        check=check_positive,
        flag="--samples",
        help="total synthetic samples",
        cli_default=1000,
    )
    num_rounds: int = _declare(
        10, check=check_positive, flag="--rounds", help="communication rounds", cli_default=8
    )
    participation: float = _declare(
        0.5, check=check_fraction, flag="--participation", help="selection ratio lambda"
    )
    scheme: str = _declare(
        "dirichlet",
        choices=("iid", "shard", "dirichlet"),
        flag="--scheme",
        help="how the dataset is partitioned across clients",
    )
    noise_std: float = _declare(0.4, check=check_non_negative)
    low_quality_fraction: float = _declare(0.0, check=check_probability)
    #: Number of *distinct* client shards to synthesise; the remaining clients
    #: share them cyclically (array views, no copies), which is how 100k+-client
    #: populations fit in memory.  0 means every client gets its own shard.
    distinct_shards: int = 0
    # -- model / local training ----------------------------------------
    model_name: str = _declare("logreg", choices=MODELS)
    hidden_sizes: tuple[int, ...] = _declare((64,), check=_check_each_positive)
    epochs: int = _declare(2, check=check_positive, flag="--epochs", help="local epochs E")
    batch_size: int = _declare(
        10, check=check_positive, flag="--batch-size", help="local batch size B"
    )
    learning_rate: float = _declare(
        0.05, check=check_positive, flag="--lr", help="local learning rate eta"
    )
    proximal_mu: float = _declare(0.01, check=check_non_negative)
    drop_percent: float = _declare(0.0, check=check_probability)
    # -- blockchain / flexibility --------------------------------------
    miners: int = _declare(2, check=check_positive, flag="--miners", help="number of miners (m)")
    mode: str = _declare("bfl", choices=tuple(m.value for m in OperatingMode))
    round_mode: str = _declare(
        "sync",
        choices=ROUND_MODES,
        flag="--round-mode",
        help="round discipline: sync waits for every client, semi_sync drops "
        "stragglers at a deadline, async proceeds on a quorum with "
        "staleness-weighted late aggregation (round-mode capable systems)",
    )
    straggler_deadline: float = _declare(
        6.0,
        check=check_positive,
        flag="--straggler-deadline",
        help="semi_sync upload-window deadline in simulated seconds",
    )
    async_quorum: float = _declare(
        0.5,
        check=check_fraction,
        flag="--async-quorum",
        help="async mode: arrival fraction that closes the upload window",
    )
    staleness_decay: float = _declare(
        0.5,
        check=check_non_negative,
        flag="--staleness-decay",
        help="async mode: exponent of the (1+staleness)^-decay weight on late updates",
    )
    verify_signatures: bool = True
    use_real_pow: bool = True
    pow_difficulty: float = _declare(16.0, check=_check_difficulty)
    # -- network substrate (see repro.net) ------------------------------
    topology: str = _declare(
        "global",
        choices=TOPOLOGIES,
        flag="--topology",
        help="committee network shape: 'global' keeps the replicated "
        "single-network path, other values give each miner its own peer "
        "set and chain view over seeded gossip (net-capable "
        "systems; docs/scenarios.md)",
    )
    peer_k: int = _declare(
        2, flag="--peer-k", help="peers drawn per node under --topology random_k"
    )
    partition: str = _declare(
        "none",
        flag="--partition",
        help="timed network splits, e.g. '2-4:0|1' splits nodes 0 and 1 "
        "apart for rounds 2-4 (requires a non-global --topology)",
    )
    churn: str = _declare(
        "none",
        flag="--churn",
        help="node departure/arrival trace, e.g. '1:-0;3:+0' takes node 0 "
        "offline for rounds 1-2 (requires a non-global --topology)",
    )
    # -- incentive ------------------------------------------------------
    strategy: str = _declare("keep", choices=STRATEGIES)
    use_fair_aggregation: bool = True
    clustering: str = _declare("dbscan", choices=CLUSTERERS)
    dbscan_eps: float = _declare(0.7, check=check_positive)
    dbscan_min_samples: int = _declare(3, check=check_positive)
    base_reward: float = _declare(1.0, check=check_non_negative)
    # -- attacks --------------------------------------------------------
    attacks: bool = _declare(
        False, flag="--attacks", help="enable 1-3 malicious clients per round"
    )
    attack_name: str = _declare(
        "sign_flip",
        choices=ATTACKS,
        flag="--attack-name",
        help="forgery the malicious clients apply (with --attacks)",
    )
    min_attackers: int = _declare(1, check=check_non_negative)
    max_attackers: int = 3
    # -- defenses -------------------------------------------------------
    defense: str = _declare(
        "none",
        check=_check_defense_chain,
        flag="--defense",
        help="robust-aggregation defense the gradient matrix passes through "
        f"before aggregation: {', '.join(DEFENSES)}, or a '+'-chained "
        "pipeline such as norm_clip+krum (see docs/threat_model.md)",
    )
    defense_fraction: float = _declare(
        0.2,
        check=check_minority,
        flag="--defense-fraction",
        help="adversary fraction the defense is sized for, in [0, 0.5)",
    )
    # -- execution ------------------------------------------------------
    backend: str = _declare(
        "serial",
        choices=EXECUTOR_BACKENDS,
        flag="--backend",
        help="how local updates run: per client or as a stacked cohort "
        "(results are identical)",
    )
    max_workers: int | None = _declare(
        None,
        check=check_positive,
        flag="--workers",
        help="processes local updates are sharded over, on either backend "
        "(default: the usable CPUs per BLAS thread count)",
    )

    def __post_init__(self) -> None:
        for name, annotation in _FIELD_TYPES:
            object.__setattr__(self, name, _coerce(name, getattr(self, name), annotation))
        self.validate()

    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """All settable scenario fields, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioSpec":
        """Build a spec from a plain mapping (JSON/TOML payload).

        Unknown keys are rejected (with the misspelt key named) rather than
        silently ignored; the constructor coerces and checks the values.
        """
        if not isinstance(mapping, dict):
            raise ScenarioError(
                f"a scenario must be a mapping of fields, got {type(mapping).__name__}"
            )
        known = cls.field_names()
        for key in mapping:
            if key not in known:
                raise ScenarioError(
                    f"unknown scenario field {key!r}; valid fields: "
                    + ", ".join(sorted(known))
                )
        return cls(**mapping)

    def to_mapping(self) -> dict:
        """The spec as a JSON/TOML-serialisable mapping (``None`` values dropped)."""
        return {k: v for k, v in self.canonical_mapping().items() if v is not None}

    def canonical_mapping(self) -> dict:
        """The *complete* field mapping in canonical form, for content hashing.

        Unlike :meth:`to_mapping` (a round-trippable document that drops
        ``None`` values), this mapping lists **every** field — so adding a
        field to :class:`ScenarioSpec` changes the canonical form, and any
        run cached under the old form is correctly invalidated — with tuples
        rendered as lists.  The fields already hold their declared types, so
        ``participation=1`` and ``participation=1.0`` hash identically.
        :func:`repro.store.keys.spec_key` hashes this mapping (minus the
        presentation-only ``name``) into the run store's content address.
        """
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy of this spec with ``overrides`` applied (and checked)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check the spec against the field rules and the registered system.

        The constructor runs this, so on a built spec it is a re-check that
        returns the same spec.
        """
        try:
            system = get_system(self.system)
        except SystemRegistryError as exc:
            raise ScenarioError(str(exc)) from exc
        try:
            # The declared per-field rules, applied for *every* system — so a
            # baseline (incl. blockchain, which ignores the FL axes) fails
            # fast with a clean error, not a deferred crash.
            for name, rule in _FIELD_RULES:
                value = getattr(self, name)
                if value is not None:  # only max_workers is optional
                    rule(name, value)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(str(exc)) from exc
        if not (0 <= self.distinct_shards <= self.num_clients):
            raise ScenarioError(
                f"distinct_shards must lie in [0, num_clients={self.num_clients}], "
                f"got {self.distinct_shards}"
            )
        # Checked for every system, so the non-net systems reject the net
        # axes with a clean message before the capability check fires.
        if self.topology == "global":
            for axis in ("partition", "churn"):
                if (getattr(self, axis) or "none") != "none":
                    raise ScenarioError(
                        f"{axis}={getattr(self, axis)!r} requires a non-'global' "
                        "topology (the single-network path cannot split)"
                    )
        # Capability-derived applicability: engaging round_mode/attacks/defense
        # on a system whose registration does not support the axis fails here.
        try:
            check_spec_axes(system, self)
        except SystemRegistryError as exc:
            raise ScenarioError(str(exc)) from exc
        try:
            # The registered system's rules that read several fields (plugins included).
            system.validate(self)
        except ScenarioError:
            raise
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"invalid scenario {self.name!r}: {exc}") from exc
        return self

    # -- component configs ---------------------------------------------
    def local_config(self) -> LocalTrainingConfig:
        """The local-training hyper-parameters (``E``, ``B``, ``η``)."""
        return LocalTrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )

    def dataset_kwargs(self) -> dict:
        """The fields that determine the federated dataset, as keyword arguments
        of :func:`repro.datasets.federated.build_federated_dataset`."""
        return {name: getattr(self, name) for name in _DATASET_FIELDS}

    def dataset_key(self) -> tuple:
        """The dataset-determining field values (the engine's memo key)."""
        return tuple(self.dataset_kwargs().values())


_DATASET_FIELDS = (
    "num_clients",
    "num_samples",
    "scheme",
    "noise_std",
    "low_quality_fraction",
    "distinct_shards",
    "seed",
)


def _field_rules() -> tuple:
    """Every declared ``(field name, rule)`` pair, resolved once at import."""
    rules = []
    for f in fields(ScenarioSpec):
        if "choices" in f.metadata:
            rules.append((f.name, partial(check_choice, choices=f.metadata["choices"])))
        if "check" in f.metadata:
            rules.append((f.name, f.metadata["check"]))
    return tuple(rules)


_FIELD_RULES = _field_rules()
_FIELD_TYPES = tuple((f.name, f.type) for f in fields(ScenarioSpec))


def _integer(value: object) -> int:
    """The one integrality rule: an integer (numpy's too) or an integral float, never a bool."""
    # The builtin type first: it spares the common case the slower ABC check.
    integral = isinstance(value, (int, Integral)) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _coerce(key: str, value: object, annotation: str) -> object:
    """Coerce a field value to its annotated type; a non-finite float cannot be hashed."""
    try:
        if annotation == "int":
            return _integer(value)
        if annotation == "float":
            if isinstance(value, bool) or not isinstance(value, (float, Real)):
                raise TypeError(f"expected a number, got {value!r}")
            return check_finite(key, value)
        if annotation == "bool":
            if not isinstance(value, bool):
                raise TypeError(f"expected a boolean, got {value!r}")
            return value
        if annotation == "str":
            if not isinstance(value, str):
                raise TypeError(f"expected a string, got {value!r}")
            return value
        if annotation.startswith("tuple"):
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected a list, got {value!r}")
            return tuple(_integer(v) for v in value)
        if annotation == "int | None":
            return None if value is None else _integer(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid value for scenario field {key!r}: {exc}") from exc
    return value


@dataclass(frozen=True)
class ScenarioMatrix:
    """A cartesian sweep: one base spec plus per-field value lists.

    ``expand()`` produces one named :class:`ScenarioSpec` per grid point, e.g.
    a matrix over ``learning_rate = [0.01, 0.05]`` and ``strategy = ["keep",
    "discard"]`` yields four scenarios named
    ``base[learning_rate=0.01,strategy=keep]`` and so on.
    """

    base: ScenarioSpec
    grid: dict

    def expand(self) -> list[ScenarioSpec]:
        """All grid points as validated specs (base order × declaration order)."""
        if not isinstance(self.grid, dict):
            raise ScenarioError(
                f"matrix must map field names to value lists, got {type(self.grid).__name__}"
            )
        axes: list[tuple[str, list]] = []
        valid = set(ScenarioSpec.field_names())
        for key, values in self.grid.items():
            if key not in valid:
                raise ScenarioError(
                    f"unknown matrix field {key!r}; valid fields: " + ", ".join(sorted(valid))
                )
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ScenarioError(
                    f"matrix field {key!r} must map to a non-empty list of values"
                )
            axes.append((key, list(values)))
        if not axes:
            return [self.base]
        specs: list[ScenarioSpec] = []
        base_map = self.base.to_mapping()
        for combo in itertools.product(*(values for _, values in axes)):
            point = dict(zip((k for k, _ in axes), combo))
            label = ",".join(f"{k}={v}" for k, v in point.items())
            merged = {**base_map, **point, "name": f"{self.base.name}[{label}]"}
            specs.append(ScenarioSpec.from_mapping(merged))
        return specs


def scenarios_from_mapping(data: dict, *, default_name: str = "scenario") -> list[ScenarioSpec]:
    """Expand a parsed scenario document into a list of validated specs.

    Three document shapes are accepted:

    * a flat mapping of :class:`ScenarioSpec` fields — one scenario;
    * ``{"base": {...}, "matrix": {field: [values, ...]}}`` — a cartesian sweep;
    * ``{"base": {...}, "scenarios": [{...}, ...]}`` — an explicit list, each
      entry overriding the shared base.
    """
    if not isinstance(data, dict):
        raise ScenarioError(
            f"a scenario document must be a mapping, got {type(data).__name__}"
        )
    if "scenarios" in data and "matrix" in data:
        raise ScenarioError("a scenario document cannot have both 'scenarios' and 'matrix'")
    if "scenarios" in data:
        entries = data["scenarios"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioError("'scenarios' must be a non-empty list of scenario mappings")
        base = data.get("base", {})
        if not isinstance(base, dict):
            raise ScenarioError("'base' must be a mapping of scenario fields")
        # Top-level keys other than the structural ones are shared fields too,
        # exactly as in the matrix shape below.
        extra = {k: v for k, v in data.items() if k not in {"base", "scenarios", "name"}}
        prefix = str(data.get("name", default_name))
        specs = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ScenarioError(f"scenario entry {index} must be a mapping")
            merged = {**extra, **base, **entry}
            merged.setdefault("name", f"{prefix}-{index}")
            specs.append(ScenarioSpec.from_mapping(merged))
        return specs
    if "matrix" in data:
        base_fields = data.get("base", {})
        if not isinstance(base_fields, dict):
            raise ScenarioError("'base' must be a mapping of scenario fields")
        extra = {k: v for k, v in data.items() if k not in {"base", "matrix"}}
        base_fields = {**extra, **base_fields}
        base_fields.setdefault("name", default_name)
        base = ScenarioSpec.from_mapping(base_fields)
        return ScenarioMatrix(base, data["matrix"]).expand()
    mapping = dict(data)
    mapping.setdefault("name", default_name)
    return [ScenarioSpec.from_mapping(mapping)]


def load_scenario_file(path: str | Path) -> list[ScenarioSpec]:
    """Load and expand a ``.json`` or ``.toml`` scenario file."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {p}")
    suffix = p.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {p}: {exc}") from exc
    elif suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11: fall back to the tomli shim
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ModuleNotFoundError as exc:
                raise ScenarioError(
                    "TOML scenario files need Python >= 3.11 (stdlib tomllib) "
                    "or the third-party 'tomli' package; alternatively use the "
                    "equivalent .json scenario form"
                ) from exc

        try:
            data = tomllib.loads(p.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"invalid TOML in {p}: {exc}") from exc
    else:
        raise ScenarioError(
            f"unsupported scenario file type {suffix!r} for {p}; use .json or .toml"
        )
    return scenarios_from_mapping(data, default_name=p.stem)
