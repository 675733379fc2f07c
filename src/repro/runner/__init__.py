"""Parallel, config-driven experiment engine.

Two layers (see ``docs/architecture.md``), above the trainers they drive:

* :mod:`repro.runner.scenario` — :class:`ScenarioSpec` /
  :class:`ScenarioMatrix`, the declarative JSON/TOML experiment layer;
* :mod:`repro.runner.engine` — :class:`ExperimentEngine`, which executes
  scenarios against memoised datasets by dispatching through the system
  registry (:mod:`repro.systems`); systems that declare
  ``needs_dataset=False`` never trigger a dataset build.

The backends of Procedure I live below them, in :class:`repro.fl.trainer.Trainer`.
"""

from repro.runner.engine import ExperimentEngine, ScenarioResult
from repro.runner.scenario import (
    ScenarioError,
    ScenarioMatrix,
    ScenarioSpec,
    load_scenario_file,
    scenarios_from_mapping,
)

__all__ = [
    "ScenarioError",
    "ScenarioMatrix",
    "ScenarioSpec",
    "load_scenario_file",
    "scenarios_from_mapping",
    "ExperimentEngine",
    "ScenarioResult",
]
