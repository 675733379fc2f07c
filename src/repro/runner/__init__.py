"""Parallel, config-driven experiment engine.

Three layers (see ``docs/architecture.md``):

* :mod:`repro.runner.executor` — :class:`ParallelExecutor`, the fan-out for
  Procedure I (serial / thread / process backends with deterministic
  per-client RNG streams);
* :mod:`repro.runner.scenario` — :class:`ScenarioSpec` /
  :class:`ScenarioMatrix`, the declarative JSON/TOML experiment layer;
* :mod:`repro.runner.engine` — :class:`ExperimentEngine`, which executes
  scenarios against memoised datasets by dispatching through the system
  registry (:mod:`repro.systems`); systems that declare
  ``needs_dataset=False`` never trigger a dataset build.

All symbols are re-exported lazily (PEP 562): the trainers import
``repro.runner.executor`` while the scenario/engine layers import the
trainers, so an eager package ``__init__`` would create an import cycle.
"""

from __future__ import annotations

import importlib

__all__ = [
    "EXECUTOR_BACKENDS",
    "ParallelExecutor",
    "resolve_worker_count",
    "ScenarioError",
    "ScenarioMatrix",
    "ScenarioSpec",
    "load_scenario_file",
    "scenarios_from_mapping",
    "ExperimentEngine",
    "ScenarioResult",
]

_EXPORTS = {
    "EXECUTOR_BACKENDS": "repro.runner.executor",
    "ParallelExecutor": "repro.runner.executor",
    "resolve_worker_count": "repro.runner.executor",
    "ScenarioError": "repro.runner.scenario",
    "ScenarioMatrix": "repro.runner.scenario",
    "ScenarioSpec": "repro.runner.scenario",
    "load_scenario_file": "repro.runner.scenario",
    "scenarios_from_mapping": "repro.runner.scenario",
    "ExperimentEngine": "repro.runner.engine",
    "ScenarioResult": "repro.runner.engine",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
