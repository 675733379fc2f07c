"""FedAvg baseline trainer (McMahan et al., 2017).

The baseline the paper labels "FedAvg": random client selection, local
mini-batch SGD, and central aggregation.  The per-round delay comes from the
shared :class:`~repro.sim.delay.DelayModel` adapter — i.e. one event-kernel
round of local training + upload + server aggregation, with no ledger costs,
priced in closed form in the kernel's own arithmetic (only the breakdown is
read here) — so the delay comparisons of Figures 4a, 5a, 6a and 7a pit all
systems against the same discrete-event timing substrate.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.federated import FederatedDataset
from repro.fl.client import LocalTrainingConfig
from repro.fl.history import RoundRecord
from repro.fl.selection import RandomSelector
from repro.fl.server import CentralServer
from repro.fl.trainer import Trainer
from repro.sim.delay import DelayModel, DelayParameters
from repro.utils.rng import new_rng
from repro.utils.vectors import finite_rows

__all__ = ["FedAvgTrainer"]


class FedAvgTrainer(Trainer):
    """Runs federated averaging over a :class:`~repro.datasets.federated.FederatedDataset`.

    ``spec`` is the run's scenario: the trainer reads its selection ratio
    ``participation``, the local-training fields, ``defense`` /
    ``defense_fraction`` (``"none"`` keeps classic FedAvg) and the
    population fields of :class:`~repro.fl.trainer.Trainer`.
    """

    label = "fedavg"

    #: Cohort-backend rounds with at least this many selected clients stream
    #: per-cohort blocks into a running aggregate instead of materialising one
    #: ``ClientUpdate`` per client (100k updates of a logreg model would be
    #: ~6 GB).  Below the threshold the materialising path keeps the byte-exact
    #: parity contract with the serial backend; the streaming fold adds float
    #: additions in a different association order, so it is equivalent only to
    #: ~1e-12 (and still fully deterministic).
    STREAM_THRESHOLD = 4096

    def __init__(self, dataset: FederatedDataset, spec) -> None:
        super().__init__(spec, dataset)
        self.selector = RandomSelector(spec.participation)
        self.delay_model = DelayModel(DelayParameters(), new_rng(spec.seed, self.label, "delay"))
        self.server = CentralServer(
            self._model_factory,
            defense=spec.defense,
            defense_fraction=spec.defense_fraction,
        )

    # ------------------------------------------------------------------
    def _local_config(self) -> LocalTrainingConfig:
        """The local-update configuration used for every client (hook for FedProx)."""
        return self.spec.local_config()

    def _post_process_updates(self, updates, rng: np.random.Generator):
        """Hook for subclasses (FedProx drops a fraction of updates here)."""
        return updates

    def _aggregate(self, updates) -> np.ndarray:
        """Apply the round's aggregation; hook for server-side variants.

        Subclasses (e.g. the momentum-FedAvg system registered by
        ``examples/custom_system.py``) can post-process the server's
        aggregate here, as long as they leave ``self.server`` holding the new
        global parameters.
        """
        return self.server.aggregate(updates)

    def _streaming_supported(self) -> bool:
        """Whether this round can use the bounded-memory streaming fold.

        Defenses need the full update matrix at once; subclasses with update
        post-processing (FedProx straggler drops) extend this check.
        """
        return self.server.defense is None

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round; append and return its record."""
        selected_ids = [
            int(cid) for cid in self.selector.select(len(self.clients), self._selection_rng)
        ]
        local_cfg = self._local_config()
        if (
            self.cohort is not None
            and len(selected_ids) >= self.STREAM_THRESHOLD
            and self._streaming_supported()
        ):
            return self._run_round_streaming(round_index, selected_ids, local_cfg)
        updates = self.local_updates(selected_ids, self.server.global_parameters, local_cfg)
        updates = self._post_process_updates(updates, self._selection_rng)
        if not updates:
            # All selected clients were dropped; keep the previous global model.
            avg_acc = self.server.evaluate(self.dataset.test_images, self.dataset.test_labels)
            train_loss = 0.0
        else:
            self._aggregate(updates)
            avg_acc = self.mean_accuracy(selected_ids, self.server.global_parameters)
            train_loss = float(np.mean([u.train_loss for u in updates]))
        return self._round_record(round_index, selected_ids, local_cfg, avg_acc, train_loss, {})

    def _round_record(
        self,
        round_index: int,
        selected_ids: list[int],
        local_cfg: LocalTrainingConfig,
        avg_acc: float,
        train_loss: float,
        extras: dict,
    ) -> RoundRecord:
        """Price the round on the delay model and emit its record."""
        sizes = np.array([self.clients[cid].num_samples for cid in selected_ids], dtype=np.float64)
        batches_per_epoch = float(np.ceil(sizes / local_cfg.batch_size).mean())
        breakdown = self.delay_model.fl_round(
            num_participants=len(selected_ids),
            batches_per_epoch=batches_per_epoch,
            epochs=local_cfg.epochs,
        )
        return self._emit(
            round_index,
            breakdown.total,
            avg_acc,
            train_loss=train_loss,
            participants=selected_ids,
            extras={"delay_breakdown": breakdown.as_dict(), **extras},
        )

    def _run_round_streaming(
        self,
        round_index: int,
        selected_ids: list[int],
        local_cfg: LocalTrainingConfig,
    ) -> RoundRecord:
        """One round as a streaming fold over cohort blocks (bounded memory).

        Equivalent to the materialising round up to float-summation order:
        the sum accumulates block by block instead of reducing one
        ``(n, params)`` matrix, so a 100k-client round never holds more than
        one cohort chunk of updates.  Per-client evaluation of the new global
        model runs batched through the cohort engine for the same reason.

        Like :meth:`CentralServer.aggregate <repro.fl.server.CentralServer.aggregate>`,
        an update with a NaN or ±Inf entry leaves the round: a block whose
        partial sum is not finite is summed again over its finite rows only,
        the mean divides by the survivors, and with none the current global
        parameters stay.
        """
        total = np.zeros_like(self.server.global_parameters)
        survivors = 0
        train_losses: list[float] = []
        blocks = 0
        for block in self.cohort.iter_update_blocks(
            self.clients, selected_ids, self.server.global_parameters, local_cfg
        ):
            # A ones-vector product, not ``.sum(axis=0)``: the two sum in a
            # different order, and the histories are pinned to this one.
            partial = np.ones(len(block.client_ids)) @ block.parameters
            if np.isfinite(partial).all():
                survivors += len(block.client_ids)
            else:
                finite = finite_rows(block.parameters)
                partial = np.ones(int(finite.sum())) @ block.parameters[finite]
                survivors += int(finite.sum())
            total += partial
            train_losses.extend(block.train_losses)
            blocks += 1
            del block  # the CohortBlock contract: drop it before the next chunk trains
        if survivors:
            new_global = self.server.commit_global(total / float(survivors))
        else:
            new_global = self.server.global_parameters
        return self._round_record(
            round_index,
            selected_ids,
            local_cfg,
            self.mean_accuracy(selected_ids, new_global),
            float(np.mean(train_losses)),
            {"cohort_stream": {"blocks": blocks, "clients": len(selected_ids)}},
        )
