"""Register a new system from *outside* the core packages.

This plugin adds ``fedavg-momentum`` — FedAvg with server-side momentum
(Hsu et al., 2019: the server treats the round's aggregated delta as a
pseudo-gradient and applies heavy-ball momentum to it) — without editing
``repro/cli.py``, ``repro/runner/engine.py``, or any other core module.
Everything flows from one ``register_system()`` call: scenario validation,
the engine's dispatch, and the CLI's choices all derive from the registry.

Run it three ways (all from the repo root):

.. code-block:: bash

   # Python, through the stable facade:
   PYTHONPATH=src python examples/custom_system.py

   # CLI, loading this file as a plugin:
   PYTHONPATH=src python -m repro.cli --plugins examples/custom_system.py \
       run fedavg-momentum --clients 8 --rounds 3 --samples 600

   # Declarative sweep over {fedavg, fedavg-momentum} x learning rates:
   PYTHONPATH=src python -m repro.cli --plugins examples/custom_system.py \
       sweep --scenario examples/custom_sweep.toml

   # And `compare` picks the new system up automatically:
   PYTHONPATH=src python -m repro.cli --plugins examples/custom_system.py \
       compare --clients 8 --rounds 2 --samples 600
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.fl.fedavg import FedAvgTrainer  # noqa: E402
from repro.nn.parameters import set_flat_parameters  # noqa: E402
from repro.systems import (  # noqa: E402
    System,
    SystemCapabilities,
    TrainerRun,
    register_system,
)


class MomentumFedAvgTrainer(FedAvgTrainer):
    """FedAvg whose server applies heavy-ball momentum to the round delta.

    With velocity ``v_0 = 0`` and aggregate ``a_t`` the server updates
    ``v_t = beta * v_{t-1} + (a_t - w_{t-1})`` and ``w_t = w_{t-1} + v_t``;
    ``beta = 0`` recovers plain FedAvg exactly.
    """

    label = "fedavg-momentum"

    def __init__(self, dataset, spec, *, momentum: float = 0.9) -> None:
        super().__init__(dataset, spec)
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(self.server.global_parameters)

    def _aggregate(self, updates) -> np.ndarray:
        previous = self.server.global_parameters.copy()
        aggregated = super()._aggregate(updates)
        self._velocity = self.momentum * self._velocity + (aggregated - previous)
        new_global = previous + self._velocity
        self.server.global_parameters = new_global
        set_flat_parameters(self.server.model, new_global)
        return new_global


class MomentumFedAvgSystem(System):
    """The plugin's registry entry: capabilities + build, nothing else."""

    name = "fedavg-momentum"
    description = "FedAvg with server-side heavy-ball momentum (beta=0.9)"
    capabilities = SystemCapabilities(needs_dataset=True, defenses=True)
    momentum = 0.9

    def build(self, spec, dataset):
        return TrainerRun(MomentumFedAvgTrainer(dataset, spec, momentum=self.momentum))


# replace=True keeps repeated imports of this file (e.g. CLI --plugins in the
# same process as an earlier load) harmless.
register_system(MomentumFedAvgSystem(), replace=True)


def main() -> None:
    from repro import api

    table, _results = api.compare(
        ("fedavg", "fedavg-momentum"),
        num_clients=8,
        num_samples=600,
        num_rounds=4,
        participation=0.5,
        model_name="logreg",
    )
    table.title = "FedAvg vs server-momentum FedAvg (same workload, same seed)"
    print(table.to_text())


if __name__ == "__main__":
    main()
