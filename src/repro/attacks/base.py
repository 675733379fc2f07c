"""Attack interface.

An attack transforms a client's honest :class:`~repro.fl.client.ClientUpdate`
into the forged update the malicious client actually uploads.  Attacks are
applied *after* local training and *before* upload, which is where the paper's
threat model places them ("malicious clients may upload fake local gradients").
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import ClientUpdate

__all__ = ["Attack", "NoAttack"]


class Attack:
    """Base class for gradient-forging attacks."""

    name: str = "attack"

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        """Return the forged update a malicious client uploads.

        Parameters
        ----------
        update:
            The honest update produced by local training.
        rng:
            Randomness source for stochastic attacks.
        global_parameters:
            The round's starting global parameters (some attacks forge
            relative to them rather than to the honest update).
        """
        raise NotImplementedError


class NoAttack(Attack):
    """Identity attack: the client stays honest (control condition)."""

    name = "none"

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        return update
