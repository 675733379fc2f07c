"""The pluggable system registry.

Every runnable system in the repository — FAIR-BFL, its discard variant, the
FedAvg/FedProx baselines, the vanilla blockchain, and anything registered
from outside — is a :class:`System`: a named object that declares its
:class:`SystemCapabilities` and knows how to :meth:`~System.build` a run for
a scenario.  The registry maps system names to these objects, and everything
that used to hard-code the system list derives from it instead:

* the CLI's ``run`` choices and ``compare`` roster come from
  :func:`system_names`;
* :meth:`repro.runner.scenario.ScenarioSpec.validate` resolves the spec's
  ``system`` through :func:`get_system` and applies the capability-derived
  axis checks of :func:`check_spec_axes` (e.g. ``round_mode`` only where a
  system supports round modes);
* :class:`repro.runner.engine.ExperimentEngine` dispatches through
  :meth:`System.build` and skips dataset construction entirely when
  ``capabilities.needs_dataset`` is False.

Register a new system with :func:`register_system` (see ``docs/api.md`` and
``examples/custom_system.py``); the CLI loads plugin modules with
``--plugins`` so new systems run through ``run``/``sweep``/``compare``
without touching core code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fl.history import TrainingHistory
    from repro.fl.trainer import Trainer

__all__ = [
    "SystemRegistryError",
    "SystemCapabilities",
    "RunResult",
    "System",
    "TrainerRun",
    "register_system",
    "unregister_system",
    "get_system",
    "system_names",
    "check_spec_axes",
    "filter_unsupported_axes",
    "capability_fingerprint",
]


class SystemRegistryError(ValueError):
    """Base error for registry problems (a :class:`ValueError`)."""


class DuplicateSystemError(SystemRegistryError):
    """A system name is already taken by another registered system."""


class UnknownSystemError(SystemRegistryError):
    """No system with the requested name is registered."""


@dataclass(frozen=True)
class SystemCapabilities:
    """What a registered system supports, declared once and derived everywhere.

    Attributes
    ----------
    needs_dataset:
        Whether :meth:`System.build` needs a federated dataset.  When False
        the engine never constructs (or memoises) one for this system — the
        vanilla blockchain is the built-in example.
    round_modes:
        Whether the system honours the ``round_mode`` axis (``sync`` /
        ``semi_sync`` / ``async``) and its tuning knobs.
    attacks:
        Whether the system can schedule malicious clients (``attacks``,
        ``attack_name``, ``min_attackers``, ``max_attackers``).
    defenses:
        Whether the system routes aggregation through the robust-aggregation
        pipeline (``defense``, ``defense_fraction``).
    cohort:
        Whether the system can run local updates on the vectorized cohort
        backend (``backend="cohort"``), i.e. its trainer runs Procedure I
        through :meth:`~repro.fl.trainer.Trainer.local_updates`.
        Unlike the other axes this one is engaged by a *specific value*:
        ``backend="serial"`` stays valid for every system (a system without
        local updates simply ignores it), only ``backend="cohort"``
        requires the capability.
    net:
        Whether the system runs on the per-node gossip substrate
        (:mod:`repro.net`): ``topology`` values other than ``"global"`` plus
        the ``peer_k``/``partition``/``churn`` axes.  Only blockchain-backed
        systems can — the substrate needs per-miner chain views to diverge
        and reconcile.  Like cohort, the axis is engaged by value:
        ``topology="global"`` stays valid everywhere.
    """

    needs_dataset: bool = True
    round_modes: bool = False
    attacks: bool = False
    defenses: bool = False
    cohort: bool = False
    net: bool = False


#: Scenario fields owned by each capability axis.  The *first* field of an axis
#: is its guard: the axis counts as engaged when the guard leaves its default,
#: which is read from the spec's own dataclass (the registry deliberately does
#: not import the scenario layer — it imports *us*).
_AXIS_FIELDS: dict[str, tuple[str, ...]] = {
    "round_modes": ("round_mode", "straggler_deadline", "async_quorum", "staleness_decay"),
    "attacks": ("attacks", "attack_name", "min_attackers", "max_attackers"),
    "defenses": ("defense", "defense_fraction"),
    "cohort": ("backend",),
    "net": ("topology", "peer_k", "partition", "churn"),
}


#: Stands in for the spec default where there is no spec: equal to no value.
_NO_DEFAULT = object()


def _axis_engaged(axis: str, value: object, default: object) -> bool:
    """Whether a guard-field value actually engages the capability axis.

    The cohort axis is engaged only by the literal ``"cohort"`` backend —
    ``serial`` is valid for every system (those without local updates
    simply ignore it), so it must not trip the check, even where there is no
    default to compare with.  The net axis mirrors it: only a non-``"global"``
    topology engages the substrate.
    """
    if axis == "cohort":
        return value == "cohort"
    if axis == "net":
        return value != "global"
    return value != default


@dataclass(frozen=True)
class RunResult:
    """The typed result of one system run.

    Attributes
    ----------
    system:
        Name of the registered system that produced the run.
    history:
        The per-round :class:`~repro.fl.history.TrainingHistory`.
    """

    system: str
    history: "TrainingHistory"


class System:
    """Base class / protocol for a registered system.

    A system is any object with a unique ``name``, a ``capabilities``
    declaration, and a ``build(spec, dataset)`` method returning a
    :class:`TrainerRun` over a :class:`~repro.fl.trainer.Trainer`, which the
    engine steps one round at a time.  Subclassing this base is
    the convenient way to get there; duck-typed objects satisfying the same
    protocol register fine too.

    The spec *is* the run's configuration: ``build`` hands it to the
    trainer, which reads its fields directly.  ``validate(spec)`` is the
    hook for this system's rules that read several fields (a rule that reads
    one field is declared on that field; the per-field rules and the
    capability checks run for every system first); ``ScenarioSpec.validate``
    calls it and reports its ``ValueError`` as a ``ScenarioError``.
    """

    name: str = ""
    description: str = ""
    capabilities: SystemCapabilities = SystemCapabilities()

    def validate(self, spec) -> None:
        """Raise ``ValueError`` for a spec this system cannot run (default: accept)."""

    def build(self, spec, dataset) -> "TrainerRun":
        """Return the :class:`TrainerRun` of ``spec``.

        ``dataset`` is the memoised federated dataset, or ``None`` when
        ``capabilities.needs_dataset`` is False.
        """
        raise NotImplementedError(f"system {self.name!r} does not implement build()")


@dataclass
class TrainerRun:
    """What :meth:`System.build` returns: the :class:`~repro.fl.trainer.Trainer` to step.

    The engine runs it round by round, closes it even when a round raises
    (releasing cohort helper processes), and wraps its history in a :class:`RunResult`.
    """

    trainer: "Trainer"


# ---------------------------------------------------------------------------
# The registry proper.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, System] = {}

_BUILTINS_LOADED = False
_BUILTINS_LOADING = False


def _ensure_builtin_systems() -> None:
    """Import the built-in system definitions exactly once (lazily).

    The scenario/engine layers import this module directly; pulling the
    built-ins in here (rather than eagerly at module import) avoids a cycle
    with the trainer modules they wrap.  The loaded flag is only set on
    *success* so a failed import surfaces again on the next call instead of
    leaving an inexplicably empty registry; the loading flag guards against
    re-entry while the builtin module itself registers its systems.
    """
    global _BUILTINS_LOADED, _BUILTINS_LOADING
    if _BUILTINS_LOADED or _BUILTINS_LOADING:
        return
    _BUILTINS_LOADING = True
    try:
        import repro.systems.builtin  # noqa: F401  (registers on import)
    finally:
        _BUILTINS_LOADING = False
    _BUILTINS_LOADED = True


def register_system(system: System, *, replace: bool = False) -> System:
    """Register ``system`` under ``system.name`` and return it.

    Raises :class:`DuplicateSystemError` when the name is taken (pass
    ``replace=True`` to swap the registration — this also makes re-importing
    a plugin module harmless) and :class:`SystemRegistryError` when the
    object does not satisfy the :class:`System` protocol.
    """
    name = getattr(system, "name", None)
    if not isinstance(name, str) or not name:
        raise SystemRegistryError(
            f"cannot register {system!r}: a system must have a non-empty string "
            "'name' attribute (see repro.systems.System)"
        )
    if not callable(getattr(system, "build", None)):
        raise SystemRegistryError(
            f"cannot register system {name!r}: it must define build(spec, dataset) "
            "returning a TrainerRun"
        )
    capabilities = getattr(system, "capabilities", None)
    if not isinstance(capabilities, SystemCapabilities):
        raise SystemRegistryError(
            f"cannot register system {name!r}: 'capabilities' must be a "
            "repro.systems.SystemCapabilities instance, got "
            f"{type(capabilities).__name__}"
        )
    _ensure_builtin_systems()
    existing = _REGISTRY.get(name)
    if existing is not None and not replace:
        raise DuplicateSystemError(
            f"a system named {name!r} is already registered "
            f"({type(existing).__name__}); pass replace=True to replace it, or "
            f"call unregister_system({name!r}) first"
        )
    _REGISTRY[name] = system
    return system


def unregister_system(name: str) -> System:
    """Remove and return the system registered under ``name``."""
    _ensure_builtin_systems()
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownSystemError(
            f"cannot unregister unknown system {name!r}; registered systems: "
            + (", ".join(_REGISTRY) or "(none)")
        ) from None


def get_system(name: str) -> System:
    """Resolve a system name, with an actionable error for unknown names."""
    _ensure_builtin_systems()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSystemError(
            f"unknown system {name!r}; registered systems: "
            + (", ".join(_REGISTRY) or "(none)")
            + ". Register new systems with repro.systems.register_system() or "
            "load a plugin module (repro.api.load_plugins / CLI --plugins)."
        ) from None


def system_names() -> tuple[str, ...]:
    """All registered system names, in registration order."""
    _ensure_builtin_systems()
    return tuple(_REGISTRY)


def systems_supporting(axis: str) -> tuple[str, ...]:
    """Names of the registered systems whose capabilities enable ``axis``."""
    if axis not in _AXIS_FIELDS:
        raise SystemRegistryError(
            f"unknown capability axis {axis!r}; expected one of: "
            + ", ".join(_AXIS_FIELDS)
        )
    _ensure_builtin_systems()
    return tuple(n for n, s in _REGISTRY.items() if getattr(s.capabilities, axis))


def capability_fingerprint(system: System | str) -> str:
    """Stable hash of a registered system's code-relevant identity.

    The fingerprint covers the system's name, the implementing class
    (``module.QualName``), and every :class:`SystemCapabilities` field, so it
    is reproducible across processes yet changes whenever a system is
    re-registered with a different implementation or capability set — a
    plugin that swaps ``fedavg`` for a variant with defenses disabled gets a
    different fingerprint even though the name is unchanged.  The run store
    (:mod:`repro.store`) folds this fingerprint into every content address,
    which is what invalidates cached runs when the system behind a scenario's
    ``system`` field is no longer the one that produced them.
    """
    system = get_system(system) if isinstance(system, str) else system
    capabilities = system.capabilities
    payload = {
        "system": system.name,
        "type": f"{type(system).__module__}.{type(system).__qualname__}",
        "capabilities": {
            f.name: getattr(capabilities, f.name) for f in fields(capabilities)
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_spec_axes(system: System, spec) -> None:
    """Reject a spec that engages an axis ``system`` does not support.

    Only non-default *engagements* fail: ``round_mode="sync"``,
    ``attacks=False`` and ``defense="none"`` are always accepted, so sharing
    one flag set across systems (the CLI's ``compare``) keeps working.
    """
    capabilities = system.capabilities
    for axis, (guard_field, *_) in _AXIS_FIELDS.items():
        if getattr(capabilities, axis):
            continue
        value = getattr(spec, guard_field)
        if _axis_engaged(axis, value, type(spec).__dataclass_fields__[guard_field].default):
            supported = systems_supporting(axis)
            raise SystemRegistryError(
                f"system {system.name!r} does not support {guard_field}="
                f"{value!r} (no {axis.replace('_', '-')} capability); systems "
                "supporting it: " + (", ".join(supported) or "(none)")
            )


def filter_unsupported_axes(system: System | str, mapping: Mapping[str, object]) -> dict:
    """Drop the axis fields ``system`` does not support from ``mapping``.

    Used where one set of scenario fields is fanned out across several
    systems (``repro.api.compare``, sweep-wide CLI overrides): each system
    receives only the axes it can honour, and its defaults cover the rest.
    """
    system = get_system(system) if isinstance(system, str) else system
    out = dict(mapping)
    for axis, axis_fields in _AXIS_FIELDS.items():
        if getattr(system.capabilities, axis):
            continue
        # A mapping carries no spec to read the guard's default from, and a
        # system without the axis has no use for any default either: only a
        # guard value that is valid everywhere (serial, global) stays.
        if not _axis_engaged(axis, out.get(axis_fields[0]), _NO_DEFAULT):
            continue
        for field_name in axis_fields:
            out.pop(field_name, None)
    return out
