"""Pluggable system registry: systems are registered, not hardwired.

The package splits into:

* :mod:`repro.systems.registry` — the :class:`System` protocol,
  :class:`SystemCapabilities`, the typed :class:`RunResult`, and the
  registry (:func:`register_system` / :func:`get_system`);
* :mod:`repro.systems.builtin` — the five shipped systems (``fairbfl``,
  ``fairbfl-discard``, ``fedavg``, ``fedprox``, ``blockchain``), registered
  on import;
* :mod:`repro.systems.plugins` — :func:`load_plugins` for importing
  third-party system modules (the CLI's ``--plugins`` flag).

See ``docs/api.md`` for the extension guide and
``examples/custom_system.py`` for a complete registered-from-outside system.
"""

from repro.systems.registry import (
    RunResult,
    System,
    SystemCapabilities,
    SystemRegistryError,
    TrainerRun,
    filter_unsupported_axes,
    get_system,
    register_system,
    system_names,
    unregister_system,
)
from repro.systems.plugins import load_plugins

__all__ = [
    "RunResult",
    "System",
    "SystemCapabilities",
    "SystemRegistryError",
    "TrainerRun",
    "filter_unsupported_axes",
    "get_system",
    "load_plugins",
    "register_system",
    "system_names",
    "unregister_system",
]

# Importing the package guarantees the built-ins are present (the registry
# also lazily imports them for callers that import repro.systems.registry
# directly, which is what breaks the cycle with the trainer modules).
from repro.systems import builtin as _builtin  # noqa: E402,F401
