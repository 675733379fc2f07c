"""The minimal :class:`~repro.fl.trainer.Trainer` the registry, engine and store tests run.

Import it as ``from toy_trainer import ToyTrainer`` (``tests/`` is on the
import path while the suite runs).
"""

from __future__ import annotations

from repro.fl.trainer import Trainer


class ToyTrainer(Trainer):
    """Fixed synthetic rounds: no dataset, no training.

    Its config is the scenario spec itself (``num_rounds`` bounds ``run()``).
    Every round takes one simulated second at accuracy 0.5 and loss 0.1.
    """

    label = "toy"

    def run_round(self, round_index: int):
        return self._emit(round_index, 1.0, 0.5, train_loss=0.1)
