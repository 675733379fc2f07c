"""Label-flipping data poisoning.

Unlike the direction-space attacks, label flipping poisons the *data* before
training: the malicious client trains honestly on dishonest labels, producing
a gradient that is statistically real but semantically wrong.  This is the
harder case for clustering-based detection and is exercised by the extended
security tests/benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.datasets.federated import ClientDataset
from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig
from repro.utils.validation import check_probability

__all__ = ["LabelFlipAttack"]


class LabelFlipAttack(Attack):
    """Re-train on a label-permuted copy of the client's shard and upload that.

    Parameters
    ----------
    flip_fraction:
        Fraction of the local samples whose labels are rotated by one class
        (``label -> (label + 1) mod num_classes``).
    num_classes:
        Number of classes in the task.
    """

    name = "label_flip"

    def __init__(self, flip_fraction: float = 1.0, num_classes: int = 10) -> None:
        self.flip_fraction = check_probability("flip_fraction", flip_fraction)
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = int(num_classes)

    def poison_labels(self, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a copy of ``labels`` with a fraction rotated to the next class."""
        poisoned = np.asarray(labels, dtype=np.int64).copy()
        n = poisoned.shape[0]
        k = int(round(self.flip_fraction * n))
        if k == 0:
            return poisoned
        idx = rng.choice(n, size=k, replace=False)
        poisoned[idx] = (poisoned[idx] + 1) % self.num_classes
        return poisoned

    def apply_with_retraining(
        self,
        client: FLClient,
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
        rng: np.random.Generator,
    ) -> ClientUpdate:
        """Produce the poisoned update by retraining on flipped labels.

        A temporary poisoned shard is built, trained on with the same local
        configuration, and the result is marked malicious.  The client's real
        shard is untouched.
        """
        poisoned_shard = ClientDataset(
            client_id=client.dataset.client_id,
            images=client.dataset.images,
            labels=self.poison_labels(client.dataset.labels, rng),
            val_images=client.dataset.val_images,
            val_labels=client.dataset.val_labels,
        )
        poisoned_client = FLClient(poisoned_shard, client.workspace, rng)
        forged = poisoned_client.local_update(global_parameters, config)
        forged.client_id = client.client_id
        return self._mark(forged)

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        """Direction-space approximation used when retraining is not possible.

        Without access to the client object, the attack approximates the effect
        of training on flipped labels by rotating the update direction partway
        toward its negation (a flipped-label gradient correlates negatively
        with the honest one but is not its exact mirror image).
        """
        if global_parameters is None:
            forged = update.copy_with_parameters(-np.asarray(update.parameters))
            return self._mark(forged)
        g = np.asarray(global_parameters, dtype=np.float64)
        direction = np.asarray(update.parameters, dtype=np.float64) - g
        mixed = -0.5 * direction + 0.5 * rng.normal(0.0, 1.0, size=direction.shape) * (
            np.linalg.norm(direction) / max(1.0, np.sqrt(direction.size))
        )
        forged = update.copy_with_parameters(g + mixed)
        return self._mark(forged)
