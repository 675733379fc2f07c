"""Cohort execution of Procedure I: whole-population local updates at once.

:class:`CohortTrainer` replaces the per-client Python loop with one loop over
stacked operands (:class:`repro.nn.cohort.CohortModel`).  Selected clients
are grouped into *cohorts* of statistically identical shape (same model
factory, same train and validation shard shapes) and each cohort trains as a
handful of stacked ``(clients, batch, features)`` matrix ops.

Bit-exactness contract
----------------------
The produced :class:`~repro.fl.client.ClientUpdate` objects are byte-identical
to what ``FLClient.local_update`` returns on the serial path:

* the per-client RNG streams are preserved — each client's mini-batch
  permutations are drawn from *its own* ``client.rng``, one per epoch, in
  epoch order, exactly as ``BatchIterator`` would (streams are private per
  client, so drawing them up front cannot change any value);
* there is no second set of numeric kernels to keep in parity: the layers,
  the loss, ``accuracy``, the SGD step and the FedProx term are the serial
  path's own objects and functions run on ``(clients, ...)`` operands, and
  each yields per client the bytes of that client's 2-D call (the two NumPy
  properties this rests on are stated in :mod:`repro.nn.cohort`);
* bookkeeping side effects (``rounds_participated``) are applied to the
  coordinator's client objects just like the other executor backends.

Memory contract
---------------
Cohorts are chunked to at most ``max_cohort_size`` clients, and a chunk trains
in parts of as many clients as keep a gathered operand within
:data:`GATHER_ROWS` rows, so peak memory is
``O(max_cohort_size · P + GATHER_ROWS · features + distinct shards)``
regardless of the population size: a chunk holds its ``(chunk, P)`` parameter
matrix, one part's ``grads`` scratch (fully rewritten by every backward, never
zeroed), one part's gathered mini-batch or validation stack, and each
*distinct* training shard once — replicated populations share archetype
arrays, which is observed by object identity and gathered through a
per-client shard index.  The 4 608-client ``cohort_population`` benchmark
workload peaks at ~133 MiB of process RSS (~281 MiB with whole-chunk operands).
:meth:`CohortTrainer.iter_update_blocks` streams these chunks to the caller
without ever materialising one ``ClientUpdate`` per client, which is what
lets a 100k-client round fit in bounded memory (see
``FedAvgTrainer._run_round_streaming``), as long as the caller drops each
:class:`CohortBlock` before asking for the next one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig
from repro.nn.cohort import CohortModel, CohortUnsupportedError, add_proximal_term, sgd_step
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy

__all__ = ["CohortBlock", "CohortTrainer", "DEFAULT_MAX_COHORT_SIZE"]

#: Default cohort chunk width, the clients of one streamed :class:`CohortBlock`:
#: a chunk of MNIST-scale logreg clients holds one 32 MB ``(chunk, P)`` matrix
#: beside its ``GATHER_ROWS``-bounded operands and the distinct shards.
DEFAULT_MAX_COHORT_SIZE = 512

#: Gathered operand rows a training or validation step holds at a time: a
#: chunk trains ``GATHER_ROWS // rows-per-client`` clients at a time, so its
#: mini-batch, validation stack and ``grads`` scratch do not grow with
#: ``max_cohort_size``.
GATHER_ROWS = 1024


@dataclass
class CohortBlock:
    """One trained cohort chunk, streamed before any aggregation.

    Consumer contract: drop the block (``del block`` at the end of a ``for``
    body) before asking the stream for the next one.  A kept block keeps its
    ``(chunk, P)`` parameter matrix alive while the next chunk trains; copy
    out whatever must outlive it.

    Attributes
    ----------
    client_ids:
        The chunk's clients, in selection order within the chunk.
    parameters:
        Updated flat parameters, shape ``(len(client_ids), P)``; row ``i``
        is byte-identical to the serial ``ClientUpdate.parameters`` of
        ``client_ids[i]``.
    num_samples:
        Local training-shard size shared by the whole cohort (cohorts group
        clients of identical shard shape).
    train_losses / val_accuracies:
        Per-client scalars matching the serial update fields exactly.
    """

    client_ids: list[int]
    parameters: np.ndarray
    num_samples: int
    train_losses: list[float]
    val_accuracies: list[float]


def _stack_distinct(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack each distinct array *object* once: ``stacked[index[i]]`` is ``arrays[i]``.

    Replicated populations (``distinct_shards``) hand one archetype array to
    many clients; private shards simply stack one array per client.
    """
    distinct = {id(a): a for a in arrays}  # one entry per object, first-seen order
    slot = {key: i for i, key in enumerate(distinct)}
    index = np.fromiter((slot[id(a)] for a in arrays), dtype=np.intp, count=len(arrays))
    return np.stack(list(distinct.values())), index


class CohortTrainer:
    """Runs Procedure I for many clients at once with stacked numpy kernels."""

    def __init__(self, max_cohort_size: int = DEFAULT_MAX_COHORT_SIZE) -> None:
        if int(max_cohort_size) <= 0:
            raise ValueError(f"max_cohort_size must be positive, got {max_cohort_size}")
        self.max_cohort_size = int(max_cohort_size)
        self._models: dict[object, CohortModel] = {}

    # -- model compilation ----------------------------------------------
    def _compiled_model(self, client: FLClient, num_parameters: int) -> CohortModel:
        factory = client.workspace.factory  # hashable: ``_group_key`` hashed it first
        model = self._models.get(factory)
        if model is None:
            model = self._models[factory] = CohortModel.from_module(factory())
        if model.num_parameters != int(num_parameters):
            raise CohortUnsupportedError(
                f"compiled cohort model has {model.num_parameters} parameters "
                f"but the global vector has {num_parameters}"
            )
        return model

    # -- grouping -------------------------------------------------------
    @staticmethod
    def _group_key(client: FLClient) -> tuple:
        dataset = client.dataset
        return (
            client.workspace.factory,
            np.asarray(dataset.images).shape,
            np.asarray(dataset.val_images).shape,
        )

    def _cohort_chunks(
        self, clients: Mapping[int, FLClient], selected: list[int]
    ) -> Iterator[list[int]]:
        """Group ``selected`` into same-shape cohorts, chunked for memory."""
        groups: dict[tuple, list[int]] = {}
        for cid in selected:
            key = self._group_key(clients[int(cid)])
            groups.setdefault(key, []).append(int(cid))
        for members in groups.values():
            for start in range(0, len(members), self.max_cohort_size):
                yield members[start : start + self.max_cohort_size]

    # -- training -------------------------------------------------------
    def iter_update_blocks(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
    ) -> Iterator[CohortBlock]:
        """Train the selected clients cohort by cohort, yielding each block.

        Peak memory is bounded by ``max_cohort_size`` and
        :data:`GATHER_ROWS` regardless of ``len(selected)``, provided the
        caller keeps the :class:`CohortBlock` consumer contract.
        """
        global_ref = np.asarray(global_parameters, dtype=np.float64)
        for chunk in self._cohort_chunks(clients, selected):
            yield self._train_chunk(clients, chunk, global_ref, config)

    def run_local_updates(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        """Drop-in for ``ParallelExecutor.run_local_updates`` (selection order)."""
        by_id: dict[int, ClientUpdate] = {}
        for block in self.iter_update_blocks(clients, selected, global_parameters, local_config):
            for i, cid in enumerate(block.client_ids):
                by_id[cid] = ClientUpdate(
                    client_id=cid,
                    parameters=block.parameters[i].copy(),
                    num_samples=block.num_samples,
                    train_loss=block.train_losses[i],
                    val_accuracy=block.val_accuracies[i],
                )
            del block  # the CohortBlock contract: drop it before the next chunk trains
        return [by_id[int(cid)] for cid in selected]

    def _train_chunk(
        self,
        clients: Mapping[int, FLClient],
        chunk: list[int],
        global_ref: np.ndarray,
        config: LocalTrainingConfig,
    ) -> CohortBlock:
        cohort = [clients[cid] for cid in chunk]
        model = self._compiled_model(cohort[0], global_ref.shape[0])
        size = len(cohort)

        images, image_of = _stack_distinct([c.dataset.images for c in cohort])
        labels, label_of = _stack_distinct([c.dataset.labels for c in cohort])
        num_samples = int(images.shape[1])

        # Per-client mini-batch permutations: one draw per epoch from each
        # client's private stream, in epoch order — the exact draws
        # BatchIterator performs on the serial path.
        orders = np.empty((size, config.epochs, num_samples), dtype=np.int64)
        for i, client in enumerate(cohort):
            for epoch in range(config.epochs):
                orders[i, epoch] = client.rng.permutation(num_samples)

        params = np.repeat(global_ref[None, :], size, axis=0)
        starts = range(0, num_samples, config.batch_size)
        losses = np.empty((size, config.epochs * len(starts)))
        accuracies: list[float] = []
        loss = SoftmaxCrossEntropyLoss()
        # Clients train ``width`` at a time, so a gathered mini-batch or
        # validation operand holds at most GATHER_ROWS rows (or one client's)
        # whatever the chunk width; no client's bytes depend on its part.
        rows = max(1, min(config.batch_size, num_samples), len(cohort[0].dataset.val_labels))
        width = min(size, max(1, GATHER_ROWS // rows))
        grads = np.empty((width, params.shape[1]))  # scratch: backward rewrites every column

        for lo in range(0, size, width):
            part = slice(lo, lo + width)
            p = params[part]
            g = grads[: p.shape[0]]
            for epoch in range(config.epochs):
                for step, start in enumerate(starts, epoch * len(starts)):
                    sel = orders[part, epoch, start : start + config.batch_size]
                    logits = model.forward(p, images[image_of[part, None], sel])
                    losses[part, step] = loss.forward(logits, labels[label_of[part, None], sel])
                    model.backward(p, g, loss.backward(), need_input_grad=False)
                    if config.proximal_mu > 0.0:
                        add_proximal_term(g, p, global_ref, config.proximal_mu)
                    sgd_step(
                        p, g, learning_rate=config.learning_rate, weight_decay=config.weight_decay
                    )
            # After training every client has its own parameters, so the forward
            # needs one validation operand per client; stacking copies each byte once.
            members = cohort[part]
            val_images = np.stack([c.dataset.val_images for c in members])
            val_labels = np.stack([c.dataset.val_labels for c in members])
            accuracies.extend(accuracy(model.forward(p, val_images), val_labels).tolist())

        for client in cohort:
            client.rounds_participated += 1
        # The template's parameters are views of ``params`` / ``grads`` by now:
        # release them, or it pins both matrices until the next chunk.
        model.release()
        # One contiguous last-axis reduction per client: the same pairwise sum
        # as the serial ``np.mean`` over that client's list of step losses.
        train_losses = losses.mean(axis=1).tolist()

        return CohortBlock(
            client_ids=list(chunk),
            parameters=params,
            num_samples=num_samples,
            train_losses=train_losses,
            val_accuracies=accuracies,
        )

    # -- evaluation -----------------------------------------------------
    def evaluate_population(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        parameters: np.ndarray,
    ) -> list[float]:
        """Batched ``client.evaluate(parameters)`` for every selected client.

        One stacked forward per distinct validation shard, where the serial
        path runs one forward per client.  Returns accuracies in
        ``selected`` order, each bit-identical to the serial
        ``FLClient.evaluate``.
        """
        global_ref = np.asarray(parameters, dtype=np.float64)
        by_id: dict[int, float] = {}
        # Every client is scored under the *same* parameters, so the accuracy
        # is a function of (model, validation shard): score each distinct
        # shard once, across chunks, and fan the float out.
        scored: dict[tuple[int, int, int], float] = {}
        for chunk in self._cohort_chunks(clients, selected):
            cohort = [clients[cid] for cid in chunk]
            model = self._compiled_model(cohort[0], global_ref.shape[0])
            keys = [
                (id(model), id(c.dataset.val_images), id(c.dataset.val_labels)) for c in cohort
            ]
            fresh = {k: c.dataset for k, c in zip(keys, cohort) if k not in scored}
            if fresh:
                val_images = np.stack([d.val_images for d in fresh.values()])
                val_labels = np.stack([d.val_labels for d in fresh.values()])
                params = np.repeat(global_ref[None, :], len(fresh), axis=0)
                logits = model.forward(params, val_images)
                scored.update(zip(fresh, accuracy(logits, val_labels).tolist()))
                model.release()
            by_id.update((cid, scored[k]) for cid, k in zip(chunk, keys))
        return [by_id[int(cid)] for cid in selected]
