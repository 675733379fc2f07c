"""The paper's Section 5.1 workload as scenario fields.

:class:`~repro.runner.scenario.ScenarioSpec` defaults are laptop-scale
(``logreg``, ``λ = 0.5``, ``E = 2``, ``η = 0.05``, 10 rounds).  Tests that
drive a trainer on the paper's defaults — an MLP, ``λ = 0.1``, ``E = 5``,
``B = 10``, ``η = 0.01`` and 100 rounds — start from :func:`paper_spec`.
"""

from __future__ import annotations

from repro.runner.scenario import ScenarioSpec

PAPER_FIELDS = dict(
    model_name="mlp",
    participation=0.1,
    epochs=5,
    batch_size=10,
    learning_rate=0.01,
    num_rounds=100,
)


def paper_spec(**overrides) -> ScenarioSpec:
    """A validated spec of the paper's workload with ``overrides`` applied."""
    return ScenarioSpec(**{**PAPER_FIELDS, **overrides}).validate()
