"""FedProx baseline trainer (Li et al., 2020).

FedProx differs from FedAvg in two ways the paper's comparison relies on:

* each client optimises a *proximal* local objective
  ``F_i(w) + (μ/2)·||w - w_global||²``, tolerating inexact local solutions
  (which is why the paper observes its accuracy "still fluctuates after the
  model converges");
* a ``drop_percent`` fraction of selected devices behave as stragglers.  In
  the paper's cost-effectiveness comparison (Fig. 7) the stragglers are
  *dropped* from aggregation ("FedProx avoids the global model skew by
  discarding stragglers"), which is the behaviour implemented here.  Stragglers
  additionally run fewer local epochs before being dropped, modelling the
  partial work they performed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.datasets.federated import FederatedDataset
from repro.fl.client import ClientUpdate, LocalTrainingConfig
from repro.fl.fedavg import FedAvgConfig, FedAvgTrainer
from repro.utils.validation import check_non_negative, check_probability

__all__ = ["FedProxConfig", "FedProxTrainer"]


@dataclass(frozen=True)
class FedProxConfig(FedAvgConfig):
    """FedAvg configuration plus the FedProx-specific knobs."""

    proximal_mu: float = 0.01
    drop_percent: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_non_negative("proximal_mu", self.proximal_mu)
        check_probability("drop_percent", self.drop_percent)

    @classmethod
    def from_fedavg(
        cls,
        base: FedAvgConfig,
        *,
        proximal_mu: float = 0.01,
        drop_percent: float = 0.0,
    ) -> "FedProxConfig":
        """Clone a FedAvg configuration, adding the FedProx parameters."""
        shared = {f.name: getattr(base, f.name) for f in fields(FedAvgConfig)}
        return cls(**shared, proximal_mu=proximal_mu, drop_percent=drop_percent)


class FedProxTrainer(FedAvgTrainer):
    """FedProx: proximal local objective + straggler dropping."""

    label = "fedprox"

    def __init__(self, dataset: FederatedDataset, config: FedProxConfig) -> None:
        if not isinstance(config, FedProxConfig):
            raise TypeError(f"FedProxTrainer requires a FedProxConfig, got {type(config).__name__}")
        super().__init__(dataset, config)
        self.config: FedProxConfig = config

    def _local_config(self) -> LocalTrainingConfig:
        return replace(self.config.local, proximal_mu=self.config.proximal_mu)

    def _streaming_supported(self) -> bool:
        """Straggler dropping needs the materialised update list (and an RNG draw)."""
        return super()._streaming_supported() and self.config.drop_percent <= 0.0

    def _post_process_updates(
        self, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[ClientUpdate]:
        """Drop a ``drop_percent`` fraction of the round's updates (stragglers)."""
        drop = self.config.drop_percent
        if drop <= 0.0 or not updates:
            return updates
        keep_mask = rng.random(len(updates)) >= drop
        kept = [u for u, keep in zip(updates, keep_mask) if keep]
        # Never drop everything: the round must still produce a global model.
        return kept if kept else updates[:1]
