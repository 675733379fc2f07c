"""Parallel, config-driven experiment engine.

Two layers (see ``docs/architecture.md``), above the trainers they drive:

* :mod:`repro.runner.scenario` — ``ScenarioSpec`` / ``ScenarioMatrix``,
  the declarative JSON/TOML experiment layer;
* :mod:`repro.runner.engine` — ``ExperimentEngine``, which executes
  scenarios against memoised datasets by dispatching through the system
  registry (:mod:`repro.systems`); systems that declare
  ``needs_dataset=False`` never trigger a dataset build.

The backends of Procedure I live below them, in :class:`repro.fl.trainer.Trainer`.
"""
