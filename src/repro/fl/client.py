"""Federated clients and their local update procedure.

Procedure I of Algorithm 1: the client reads the global parameters from the
latest block (or from the central server in the FL baselines), runs ``E``
epochs of mini-batch SGD with batch size ``B`` and learning rate ``η`` on its
local shard, and produces the updated parameter vector ``w^i_{r+1}`` that it
will upload.

The same client type also implements the FedProx local objective (an added
proximal term ``(μ/2)·||w - w_global||²``), selected through
:class:`LocalTrainingConfig.proximal_mu`, so the FedProx baseline shares all
of the data/model plumbing with FAIR-BFL.

Clients own data, not models.  A local update overwrites every parameter from
``w_r`` on entry, so the model it trains is scratch: a :class:`ModelWorkspace`
— one per trainer, shared by all of its clients — keeps one *packed* scratch
model, and every vector that leaves it is a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.datasets.federated import ClientDataset
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.nn.optim import SGD, add_proximal_term
from repro.nn.parameters import (
    get_flat_parameters,
    pack_parameters,
    set_flat_parameters,
)

__all__ = ["LocalTrainingConfig", "ClientUpdate", "ModelWorkspace", "FLClient"]


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Hyper-parameters of the local update (paper Table 1 defaults).

    Attributes
    ----------
    epochs:
        Number of local epochs ``E`` (paper default 5).
    batch_size:
        Mini-batch size ``B`` (paper default 10).
    learning_rate:
        SGD step size ``η`` (paper default 0.01; swept in Figure 5).
    proximal_mu:
        FedProx proximal coefficient ``μ``; 0 recovers plain SGD / FedAvg.

    Not checked here: a run builds it from a validated scenario
    (:meth:`~repro.runner.scenario.ScenarioSpec.local_config`), whose fields
    carry the rules.
    """

    epochs: int = 5
    batch_size: int = 10
    learning_rate: float = 0.01
    proximal_mu: float = 0.0


@dataclass
class ClientUpdate:
    """What a client hands to its miner/server after a local update.

    Attributes
    ----------
    client_id:
        Index of the producing client.
    parameters:
        Updated flat parameter vector ``w^i_{r+1}``; ``None`` once FAIR-BFL's
        Procedure II has handed it to the client's upload transaction.
    train_loss:
        Mean training loss over the local epochs.
    digest:
        SHA-256 hex digest of ``parameters`` when the process that trained
        them took it (a sharded round of a trainer that uploads its updates,
        ``CohortTrainer.shard_local_updates``), else ``None``: Procedure II
        then hashes the vector itself.  :meth:`copy_with_parameters` drops
        it, so a forged vector is hashed as what it is.

    The paper's accuracy is not here: it is each client's verification
    accuracy under the round's *new global* parameters, which the trainer
    scores after aggregation (``Trainer.mean_accuracy``).
    """

    client_id: int
    parameters: np.ndarray | None
    train_loss: float
    digest: str | None = None

    def copy_with_parameters(self, parameters: np.ndarray) -> "ClientUpdate":
        """Return a copy of this update carrying different parameters (and no digest)."""
        return replace(self, parameters=np.asarray(parameters, dtype=np.float64), digest=None)


class ModelWorkspace:
    """The scratch model of one trainer, shared by all of its clients.

    ``factory`` is a zero-argument model builder.  :meth:`model` builds and
    packs (:func:`~repro.nn.parameters.pack_parameters`) one model the first
    time it is asked — so a run holds one model however many clients it has.
    The model lives and dies with the workspace (there is no module-level
    cache).
    """

    def __init__(self, factory: Callable[[], Module]) -> None:
        self.factory = factory
        self._model: Module | None = None

    def model(self) -> Module:
        """The scratch model (created on first use)."""
        if self._model is None:
            self._model = pack_parameters(self.factory())
        return self._model


class FLClient:
    """A federated client owning a local data shard and a private RNG stream.

    Parameters
    ----------
    dataset:
        The client's :class:`~repro.datasets.federated.ClientDataset`.
    workspace:
        The :class:`ModelWorkspace` this client trains in (a trainer hands the
        same one to all of its clients).  Its model is built lazily and is
        scratch: every local update and evaluation loads the parameters it is
        given first.
    rng:
        The client's private generator, drawn only by :meth:`draw_orders`.
    """

    def __init__(
        self,
        dataset: ClientDataset,
        workspace: ModelWorkspace,
        rng: np.random.Generator,
    ) -> None:
        self.dataset = dataset
        self.client_id = int(dataset.client_id)
        self.workspace = workspace
        self.rng = rng

    # -- model management ----------------------------------------------------
    @property
    def model(self) -> Module:
        """The scratch model of this client's workspace."""
        return self.workspace.model()

    @property
    def num_samples(self) -> int:
        """Local training-set size |D_i|."""
        return self.dataset.num_samples

    # -- Procedure I: local learning and update -------------------------------
    def draw_orders(self, epochs: int) -> list[np.ndarray]:
        """The sample orders of ``epochs`` local epochs: one permutation of
        ``range(|D_i|)`` per epoch, in epoch order, from the client's stream.

        The only draw a round makes from it, on whichever backend or process
        trains the client: streams are private, so drawing every order up
        front changes no value.
        """
        return [self.rng.permutation(self.num_samples) for _ in range(epochs)]

    def local_update(
        self,
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
        orders: list[np.ndarray],
    ) -> ClientUpdate:
        """Run mini-batch SGD from ``global_parameters``, one epoch per order.

        Implements Algorithm 1 lines 6-11 (and, when ``config.proximal_mu > 0``,
        the FedProx local objective) over ``orders``, the epochs' sample
        orders (:meth:`draw_orders`): an epoch is its shard in that order, cut
        into batches of ``B`` with the short last batch kept (the ``D_i / B``
        accounting of Section 4.1).  Returns the client's :class:`ClientUpdate`.
        """
        model = self.model
        set_flat_parameters(model, global_parameters)
        loss_fn = SoftmaxCrossEntropyLoss()
        optimizer = SGD(model, lr=config.learning_rate)
        values, grads = model.packed
        global_ref = np.asarray(global_parameters, dtype=np.float64).ravel()
        batch = config.batch_size

        # One step per backward: the backward writes the gradients and the
        # step consumes them in place.
        losses: list[float] = []
        for order in orders:
            # One gather per epoch, then contiguous slices of it: copies, never
            # views of the shard.
            images, labels = self.dataset.images[order], self.dataset.labels[order]
            for start in range(0, len(order), batch):
                logits = model.forward(images[start : start + batch])
                loss = loss_fn.forward(logits, labels[start : start + batch])
                model.backward(loss_fn.backward())
                if config.proximal_mu > 0.0:
                    add_proximal_term(grads, values, global_ref, config.proximal_mu)
                optimizer.step()
                losses.append(loss)

        # Drop the last mini-batch the layers cached for a backward pass, or
        # it stays alive into whatever uses the scratch model next.
        model.clear_caches()
        return ClientUpdate(
            client_id=self.client_id,
            parameters=get_flat_parameters(model),
            train_loss=float(np.mean(losses)) if losses else 0.0,
        )

    def evaluate(self, parameters: np.ndarray, *, loaded: bool = False) -> float:
        """Accuracy of ``parameters`` on the client's local verification split.

        ``loaded`` says the scratch model holds ``parameters`` already: the
        clients of one trainer share that model, so scoring one vector on many
        of them loads it once (``Trainer.mean_accuracy``).
        """
        if not loaded:
            set_flat_parameters(self.model, parameters)
        return accuracy(self.model.forward(self.dataset.val_images), self.dataset.val_labels)
