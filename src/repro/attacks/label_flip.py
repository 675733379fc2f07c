"""Label flipping, approximated in direction space.

A client that trains honestly on rotated labels uploads a gradient that is
statistically real but semantically wrong: it correlates negatively with the
honest direction without being its mirror image.  The scheduler forges after
local training, so :class:`LabelFlipAttack` approximates that gradient from
the honest update instead of retraining on poisoned data.  This is the harder
case for clustering-based detection and is exercised by the extended security
tests/benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.fl.client import ClientUpdate

__all__ = ["LabelFlipAttack"]


class LabelFlipAttack(Attack):
    """Upload an update direction rotated partway toward its negation.

    With the global parameters ``g`` and the honest direction
    ``d = w_i - g``, the forged update is ``g - 0.5 d + 0.5 z`` where ``z`` is
    isotropic noise scaled to ``d``'s per-coordinate norm — the stand-in for
    training on labels rotated by one class.  Without ``g`` the raw vector is
    negated.
    """

    name = "label_flip"

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        """Forge the label-flipped update (see the class docstring)."""
        if global_parameters is None:
            return update.copy_with_parameters(-np.asarray(update.parameters))
        g = np.asarray(global_parameters, dtype=np.float64)
        direction = np.asarray(update.parameters, dtype=np.float64) - g
        mixed = -0.5 * direction + 0.5 * rng.normal(0.0, 1.0, size=direction.shape) * (
            np.linalg.norm(direction) / max(1.0, np.sqrt(direction.size))
        )
        return update.copy_with_parameters(g + mixed)
