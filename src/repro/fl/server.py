"""Central parameter server for the FL baselines.

FedAvg and FedProx retain the conventional single-server topology the paper
contrasts against (its single-point-of-failure motivates BFL in the first
place).  The server holds the global model parameters, collects client
updates, aggregates them, and redistributes the result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fl.aggregation import (
    AggregationError,
    aggregate_client_updates,
    stack_updates,
    weighted_average,
)
from repro.fl.client import ClientUpdate
from repro.fl.robust import RobustOutcome, make_defense
from repro.nn.module import Module
from repro.nn.parameters import (
    accuracy_of_parameters,
    get_flat_parameters,
    set_flat_parameters,
)

__all__ = ["CentralServer"]


class CentralServer:
    """The centralised aggregator used by FedAvg / FedProx.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building the global model; the server keeps one
        instance for parameter storage and test-set evaluation.
    aggregation:
        ``"simple"`` (unweighted mean) or ``"samples"`` (weight by each
        client's reported sample count, classic FedAvg).
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
        aggregation: str = "simple",
        defense: str = "none",
        defense_fraction: float = 0.2,
    ) -> None:
        if aggregation not in {"simple", "samples"}:
            raise ValueError(
                f"aggregation must be 'simple' or 'samples', got {aggregation!r}"
            )
        self.model = model_factory()
        self.aggregation = aggregation
        self.defense = make_defense(defense, attacker_fraction=defense_fraction)
        #: The defense's outcome for the most recent round (None when no
        #: defense is configured or no round has run yet).
        self.last_defense_outcome: RobustOutcome | None = None
        self.global_parameters = get_flat_parameters(self.model)
        self.round_count = 0

    def aggregate(self, updates: list[ClientUpdate]) -> np.ndarray:
        """Aggregate the round's client updates into new global parameters.

        Routes through the vectorised
        :func:`~repro.fl.aggregation.aggregate_client_updates` path (one
        stacked matrix, no per-client Python loops) and raises the same
        :class:`~repro.fl.aggregation.AggregationError` as ``simple_average``
        does on empty input.  With a defense configured the stacked matrix
        first passes through the robust pipeline in direction space (rows
        minus the current global parameters): an aggregate-replacing defense
        (median / trimmed mean) supplies the new global directly, a filtering
        defense hands its clipped survivors to the configured aggregation
        scheme.
        """
        if not updates:
            raise AggregationError("cannot aggregate an empty list of client updates")
        if self.defense is None:
            new_global = aggregate_client_updates(updates, scheme=self.aggregation)
        else:
            matrix = stack_updates(updates)
            outcome = self.defense.apply(matrix - self.global_parameters[None, :])
            self.last_defense_outcome = outcome
            if outcome.replaces_aggregation:
                new_global = self.global_parameters + outcome.aggregate
            else:
                rows = self.global_parameters[None, :] + outcome.deltas
                if self.aggregation == "samples":
                    sizes = np.array(
                        [
                            float(getattr(updates[i], "num_samples", 1.0))
                            for i in outcome.kept_indices
                        ]
                    )
                    new_global = weighted_average(rows, sizes)
                else:
                    new_global = rows.mean(axis=0)
        self.global_parameters = new_global
        set_flat_parameters(self.model, new_global)
        self.round_count += 1
        return new_global

    def commit_global(self, new_global: np.ndarray) -> np.ndarray:
        """Install an externally aggregated global parameter vector.

        The streaming cohort round (see ``FedAvgTrainer._run_round_streaming``)
        folds client updates into a weighted sum as they are produced instead
        of handing the server a materialised update list; this is its hook to
        publish the result while keeping the server's bookkeeping (model
        weights, round counter) identical to :meth:`aggregate`.
        """
        new_global = np.asarray(new_global, dtype=np.float64)
        self.global_parameters = new_global
        set_flat_parameters(self.model, new_global)
        self.round_count += 1
        return new_global

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the current global parameters on a held-out test set."""
        return accuracy_of_parameters(self.model, self.global_parameters, images, labels)
