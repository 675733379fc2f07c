"""Central parameter server for the FL baselines.

FedAvg and FedProx retain the conventional single-server topology the paper
contrasts against (its single-point-of-failure motivates BFL in the first
place).  The server holds the global model parameters, collects client
updates, aggregates them, and redistributes the result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fl.aggregation import simple_average, stack_updates
from repro.fl.client import ClientUpdate
from repro.fl.robust import make_defense
from repro.nn.module import Module
from repro.nn.parameters import (
    accuracy_of_parameters,
    get_flat_parameters,
    set_flat_parameters,
)
from repro.utils.vectors import compact_rows_in_place, finite_rows

__all__ = ["CentralServer"]


class CentralServer:
    """The centralised aggregator used by FedAvg / FedProx.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building the global model; the server keeps one
        instance for parameter storage and test-set evaluation.
    defense:
        Optional robust-aggregation defense (``repro.fl.robust`` name or
        ``"+"``-chain) the stacked update matrix passes through before
        aggregation; ``"none"`` keeps the classic path.
    defense_fraction:
        Adversary fraction the defense is sized for.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        *,
        defense: str = "none",
        defense_fraction: float = 0.2,
    ) -> None:
        self.model = model_factory()
        self.defense = make_defense(defense, attacker_fraction=defense_fraction)
        self.global_parameters = get_flat_parameters(self.model)

    def aggregate(self, updates: list[ClientUpdate]) -> np.ndarray:
        """Aggregate the round's client updates into new global parameters.

        First an update with any NaN or ±Inf entry leaves the round (it would
        poison every aggregate below); if none is left, the current global
        parameters stay.  Without a defense the result is the simple average
        of the stacked updates (an empty list raises
        :class:`~repro.fl.aggregation.AggregationError`).  With one, the
        stacked matrix first passes through the robust pipeline in direction
        space (rows minus the current global parameters): an
        aggregate-replacing defense (median / trimmed mean) supplies the new
        global directly, a filtering defense's clipped survivors are averaged.
        """
        matrix = stack_updates(updates)
        # Survivors move up in place; an all-finite matrix is the same array.
        rows = np.flatnonzero(finite_rows(matrix))
        if not rows.size:
            return self.global_parameters
        matrix = compact_rows_in_place(matrix, rows)
        if self.defense is None:
            return self.commit_global(simple_average(matrix))
        # The stacked matrix is the server's own: the defense consumes it.
        matrix -= self.global_parameters
        outcome = self.defense.apply(matrix)
        if self.defense.replaces_aggregation:
            return self.commit_global(self.global_parameters + outcome.aggregate)
        # The surviving rows: add the global parameters back onto them in place.
        rows = outcome.deltas
        rows += self.global_parameters
        return self.commit_global(rows.mean(axis=0))

    def commit_global(self, new_global: np.ndarray) -> np.ndarray:
        """Install an aggregated global parameter vector on the server's model.

        :meth:`aggregate` ends here, and so does the streaming cohort round
        (see ``FedAvgTrainer._run_round_streaming``), which folds client
        updates into a running sum as they are produced instead of handing
        the server a materialised update list.
        """
        new_global = np.asarray(new_global, dtype=np.float64)
        self.global_parameters = new_global
        set_flat_parameters(self.model, new_global)
        return new_global

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the current global parameters on a held-out test set."""
        return accuracy_of_parameters(self.model, self.global_parameters, images, labels)
