"""Declarative experiment scenarios.

A :class:`ScenarioSpec` is the single description of one experiment: which
system runs (FAIR-BFL, a baseline, or the vanilla blockchain), the workload
shape (clients, samples, rounds, partitioning), the algorithmic knobs
(strategy, flexibility mode, attack/defense mix, incentive parameters) and the
execution backend.  Scenarios are plain data — they can be written as JSON or
TOML files, swept as cartesian grids through :class:`ScenarioMatrix`, and
executed by :class:`repro.runner.engine.ExperimentEngine` — so every benchmark
and CLI subcommand drives through one engine instead of hand-rolled wiring.

Validation is derived from the system registry
(:mod:`repro.systems.registry`): :meth:`ScenarioSpec.validate` resolves the
``system`` field through :func:`~repro.systems.registry.get_system`, applies
the capability-derived axis checks (``round_mode``/``attacks``/``defense``
only where the registered system supports them), and asks the system to
build its authoritative config (:class:`repro.core.config.FairBFLConfig` and
friends) — so a scenario file can never drift from what the registered
systems accept, and a plugin-registered system validates exactly like a
built-in.  All scenario problems are raised as :class:`ScenarioError` (a
:class:`ValueError`) with the offending field named.

See ``docs/scenarios.md`` for the field-by-field reference and
``scenarios/`` for example files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.attacks.gradient_attacks import ATTACKS
from repro.core.config import FairBFLConfig
from repro.core.flexibility import OperatingMode
from repro.fl.client import LocalTrainingConfig
from repro.fl.robust import check_defense
from repro.fl.fedavg import FedAvgConfig
from repro.fl.fedprox import FedProxConfig
from repro.incentive.contribution import ContributionConfig
from repro.net.topology import TOPOLOGIES
from repro.runner.executor import EXECUTOR_BACKENDS
from repro.sim.rounds import ROUND_MODES
from repro.sim.vanilla_blockchain import VanillaBlockchainConfig
from repro.systems.registry import (
    SystemRegistryError,
    check_spec_axes,
    get_system,
    system_names,
)

__all__ = [
    "SCENARIO_SYSTEMS",
    "ScenarioError",
    "ScenarioSpec",
    "ScenarioMatrix",
    "scenarios_from_mapping",
    "load_scenario_file",
]

_PARTITION_SCHEMES = ("iid", "shard", "dirichlet")


def __getattr__(name: str):
    # Kept for backwards compatibility: the runnable systems used to be a
    # hardcoded tuple here; they are now whatever the registry holds.
    if name == "SCENARIO_SYSTEMS":
        return system_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ScenarioError(ValueError):
    """A scenario file or mapping is malformed or fails validation."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified experiment (see ``docs/scenarios.md``).

    Field defaults deliberately match the laptop-scale defaults of
    :class:`repro.core.experiment.ExperimentSuite`, so a scenario that sets
    nothing but ``system`` reproduces the benchmark harness's baseline
    workload.
    """

    # -- identity -------------------------------------------------------
    name: str = "scenario"
    system: str = "fairbfl"
    seed: int = 0
    # -- workload shape -------------------------------------------------
    num_clients: int = 20
    num_samples: int = 1500
    num_rounds: int = 10
    participation: float = 0.5
    scheme: str = "dirichlet"
    noise_std: float = 0.4
    low_quality_fraction: float = 0.0
    #: Number of *distinct* client shards to synthesise; the remaining clients
    #: share them cyclically (array views, no copies), which is how 100k+-client
    #: populations fit in memory.  0 means every client gets its own shard.
    distinct_shards: int = 0
    # -- model / local training ----------------------------------------
    model_name: str = "logreg"
    hidden_sizes: tuple[int, ...] = (64,)
    epochs: int = 2
    batch_size: int = 10
    learning_rate: float = 0.05
    proximal_mu: float = 0.01
    drop_percent: float = 0.0
    # -- blockchain / flexibility --------------------------------------
    miners: int = 2
    mode: str = "bfl"
    round_mode: str = "sync"
    straggler_deadline: float = 6.0
    async_quorum: float = 0.5
    staleness_decay: float = 0.5
    verify_signatures: bool = True
    use_real_pow: bool = True
    pow_difficulty: float = 16.0
    # -- network substrate (see repro.net) ------------------------------
    topology: str = "global"
    peer_k: int = 2
    partition: str = "none"
    churn: str = "none"
    # -- incentive ------------------------------------------------------
    strategy: str = "keep"
    use_fair_aggregation: bool = True
    clustering: str = "dbscan"
    dbscan_eps: float = 0.7
    dbscan_min_samples: int = 3
    base_reward: float = 1.0
    # -- attacks --------------------------------------------------------
    attacks: bool = False
    attack_name: str = "sign_flip"
    min_attackers: int = 1
    max_attackers: int = 3
    # -- defenses -------------------------------------------------------
    defense: str = "none"
    defense_fraction: float = 0.2
    # -- execution ------------------------------------------------------
    backend: str = "serial"
    max_workers: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """All settable scenario fields, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioSpec":
        """Build and validate a spec from a plain mapping (JSON/TOML payload).

        Unknown keys are rejected (with the misspelt key named) rather than
        silently ignored, and scalar values are coerced to the field types.
        """
        if not isinstance(mapping, dict):
            raise ScenarioError(
                f"a scenario must be a mapping of fields, got {type(mapping).__name__}"
            )
        known = {f.name: f for f in fields(cls)}
        values: dict[str, object] = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ScenarioError(
                    f"unknown scenario field {key!r}; valid fields: "
                    + ", ".join(sorted(known))
                )
            values[key] = _coerce(key, raw, cls.__dataclass_fields__[key].type)
        spec = cls(**values)
        spec.validate()
        return spec

    def to_mapping(self) -> dict:
        """The spec as a JSON/TOML-serialisable mapping."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            if value is None:
                continue
            out[f.name] = value
        return out

    def canonical_mapping(self) -> dict:
        """The *complete* field mapping in canonical form, for content hashing.

        Unlike :meth:`to_mapping` (a round-trippable document that drops
        ``None`` values), this mapping lists **every** field — so adding a
        field to :class:`ScenarioSpec` changes the canonical form, and any
        run cached under the old form is correctly invalidated — with values
        normalised through the same coercion the file loader applies
        (``participation=1`` and ``participation=1.0`` hash identically) and
        tuples rendered as lists.  :func:`repro.store.keys.spec_key` hashes
        this mapping (minus the presentation-only ``name``) into the run
        store's content address.
        """
        out: dict[str, object] = {}
        for f in fields(self):
            value = _coerce(f.name, getattr(self, f.name), f.type)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy of this spec with ``overrides`` applied (and re-validated)."""
        spec = replace(self, **overrides)
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Validate the spec against the registered system's config and axes."""
        try:
            system = get_system(self.system)
        except SystemRegistryError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.scheme not in _PARTITION_SCHEMES:
            raise ScenarioError(
                f"unknown partition scheme {self.scheme!r}; expected one of: "
                + ", ".join(_PARTITION_SCHEMES)
            )
        if self.backend not in EXECUTOR_BACKENDS:
            raise ScenarioError(
                f"unknown backend {self.backend!r}; expected one of: "
                + ", ".join(EXECUTOR_BACKENDS)
            )
        if self.round_mode not in ROUND_MODES:
            raise ScenarioError(
                f"unknown round_mode {self.round_mode!r}; expected one of: "
                + ", ".join(ROUND_MODES)
            )
        # Checked here (not only via FairBFLConfig) so scenarios for the
        # baseline systems — including blockchain, whose config ignores the
        # FL axes — fail fast too, with a clean ScenarioError.
        if self.attack_name not in ATTACKS:
            raise ScenarioError(
                f"unknown attack {self.attack_name!r}; expected one of: "
                + ", ".join(ATTACKS)
            )
        if not (0.0 <= self.defense_fraction < 0.5):
            raise ScenarioError(
                f"defense_fraction must lie in [0, 0.5), got {self.defense_fraction}"
            )
        try:
            check_defense(self.defense, self.defense_fraction)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.straggler_deadline <= 0.0:
            raise ScenarioError(
                f"straggler_deadline must be positive, got {self.straggler_deadline}"
            )
        if not (0.0 < self.async_quorum <= 1.0):
            raise ScenarioError(f"async_quorum must lie in (0, 1], got {self.async_quorum}")
        if self.staleness_decay < 0.0:
            raise ScenarioError(f"staleness_decay must be >= 0, got {self.staleness_decay}")
        for field_name in ("num_clients", "num_samples"):
            if int(getattr(self, field_name)) <= 0:
                raise ScenarioError(
                    f"{field_name} must be positive, got {getattr(self, field_name)}"
                )
        if self.max_workers is not None and int(self.max_workers) <= 0:
            raise ScenarioError(f"max_workers must be positive, got {self.max_workers}")
        if not (0 <= int(self.distinct_shards) <= int(self.num_clients)):
            raise ScenarioError(
                f"distinct_shards must lie in [0, num_clients={self.num_clients}], "
                f"got {self.distinct_shards}"
            )
        if not (0.0 <= self.low_quality_fraction <= 1.0):
            raise ScenarioError(
                f"low_quality_fraction must be in [0, 1], got {self.low_quality_fraction}"
            )
        # Checked here (not only via FairBFLConfig) so every system rejects a
        # misspelt topology, and the non-net systems reject the net axes with
        # a clean message before the capability check fires.
        if self.topology not in TOPOLOGIES:
            raise ScenarioError(
                f"unknown topology {self.topology!r}; expected one of: "
                + ", ".join(TOPOLOGIES)
            )
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
            # The registered system builds its authoritative config, which
            # carries the real validation rules — scenario validation stays in
            # lockstep with core/config.py (and with plugin config classes).
            system.validate(self)
        except ScenarioError:
            raise
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"invalid scenario {self.name!r}: {exc}") from exc
        return self

    # -- config builders ------------------------------------------------
    def local_config(self) -> LocalTrainingConfig:
        """The local-training hyper-parameters (``E``, ``B``, ``η``)."""
        return LocalTrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
        )

    def contribution_config(self) -> ContributionConfig:
        """Algorithm 2 configuration derived from the incentive fields."""
        return ContributionConfig(
            algorithm=self.clustering,
            eps=self.dbscan_eps,
            min_samples=self.dbscan_min_samples,
            base_reward=self.base_reward,
            seed=self.seed,
        )

    def fairbfl_config(self) -> FairBFLConfig:
        """The :class:`FairBFLConfig` this scenario describes."""
        strategy = "discard" if self.system == "fairbfl-discard" else self.strategy
        return FairBFLConfig(
            num_miners=self.miners,
            num_rounds=self.num_rounds,
            participation_fraction=self.participation,
            local=self.local_config(),
            model_name=self.model_name,
            hidden_sizes=self.hidden_sizes,
            contribution=self.contribution_config(),
            strategy=strategy,
            use_fair_aggregation=self.use_fair_aggregation,
            mode=OperatingMode.parse(self.mode),
            round_mode=self.round_mode,
            straggler_deadline=self.straggler_deadline,
            async_quorum=self.async_quorum,
            staleness_decay=self.staleness_decay,
            enable_attacks=self.attacks,
            attack_name=self.attack_name,
            min_attackers=self.min_attackers,
            max_attackers=self.max_attackers,
            defense=self.defense,
            defense_fraction=self.defense_fraction,
            verify_signatures=self.verify_signatures,
            use_real_pow=self.use_real_pow,
            pow_difficulty=self.pow_difficulty,
            topology=self.topology,
            peer_k=self.peer_k,
            partition=self.partition,
            churn=self.churn,
            executor_backend=self.backend,
            executor_workers=self.max_workers,
            seed=self.seed,
        )

    def fedavg_config(self) -> FedAvgConfig:
        """The :class:`FedAvgConfig` this scenario describes."""
        return FedAvgConfig(
            num_rounds=self.num_rounds,
            participation_fraction=self.participation,
            local=self.local_config(),
            defense=self.defense,
            defense_fraction=self.defense_fraction,
            model_name=self.model_name,
            hidden_sizes=self.hidden_sizes,
            executor_backend=self.backend,
            executor_workers=self.max_workers,
            seed=self.seed,
        )

    def fedprox_config(self) -> FedProxConfig:
        """The :class:`FedProxConfig` this scenario describes."""
        return FedProxConfig.from_fedavg(
            self.fedavg_config(),
            proximal_mu=self.proximal_mu,
            drop_percent=self.drop_percent,
        )

    def blockchain_config(self) -> VanillaBlockchainConfig:
        """The :class:`VanillaBlockchainConfig` this scenario describes."""
        return VanillaBlockchainConfig(
            num_workers=self.num_clients,
            num_miners=self.miners,
            num_rounds=self.num_rounds,
            seed=self.seed,
        )

    def dataset_key(self) -> tuple:
        """The fields that determine the federated dataset (cache key)."""
        return (
            self.num_clients,
            self.num_samples,
            self.scheme,
            self.noise_std,
            self.low_quality_fraction,
            self.distinct_shards,
            self.seed,
        )


def _integer(value: object) -> int:
    """The one integrality rule: an int or an integral float, never a bool or a string."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _coerce(key: str, value: object, annotation: str) -> object:
    """Coerce a JSON/TOML scalar to the annotated field type."""
    try:
        if annotation == "int":
            return _integer(value)
        if annotation == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"expected a number, got {value!r}")
            return float(value)
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
            return [self.base.validate()]
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
        base_fields = dict(data.get("base", {}))
        if not isinstance(data.get("base", {}), dict):
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
