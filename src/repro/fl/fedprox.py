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

from dataclasses import replace

import numpy as np

from repro.fl.client import ClientUpdate, LocalTrainingConfig
from repro.fl.fedavg import FedAvgTrainer

__all__ = ["FedProxTrainer"]


class FedProxTrainer(FedAvgTrainer):
    """FedProx: proximal local objective + straggler dropping.

    Reads the spec's ``proximal_mu`` and ``drop_percent`` on top of FedAvg's fields.
    """

    label = "fedprox"

    def _local_config(self) -> LocalTrainingConfig:
        return replace(self.spec.local_config(), proximal_mu=self.spec.proximal_mu)

    def _streaming_supported(self) -> bool:
        """Straggler dropping needs the materialised update list (and an RNG draw)."""
        return super()._streaming_supported() and self.spec.drop_percent <= 0.0

    def _post_process_updates(
        self, updates: list[ClientUpdate], rng: np.random.Generator
    ) -> list[ClientUpdate]:
        """Drop a ``drop_percent`` fraction of the round's updates (stragglers)."""
        drop = self.spec.drop_percent
        if drop <= 0.0 or not updates:
            return updates
        keep_mask = rng.random(len(updates)) >= drop
        kept = [u for u, keep in zip(updates, keep_mask) if keep]
        # Never drop everything: the round must still produce a global model.
        return kept if kept else updates[:1]
