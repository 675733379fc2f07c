"""Gradient-forging attacks.

Each attack modifies the uploaded parameter vector after honest local training.
The paper does not commit to a specific forgery; we implement the four standard
model-poisoning primitives from the robust-FL literature, with
:class:`SignFlipAttack` as the default used for Table 2 (it is the archetypal
"modify the actual local gradients to skew the global model" attack).

All attacks operate on the *update direction* ``w_i - w_global`` when the
global parameters are available, and on the raw vector otherwise, so that a
forged upload points away from the honest consensus direction — which is what
the clustering in Algorithm 2 is designed to catch.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.label_flip import LabelFlipAttack
from repro.fl.client import ClientUpdate
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "ATTACKS",
    "SignFlipAttack",
    "make_attack",
]

#: Attack names accepted by :func:`make_attack` — the authoritative axis the
#: scenario layer, the CLI, and the docs-coverage checker all share.
ATTACKS = (
    "sign_flip",
    "scaling",
    "gaussian_noise",
    "zero_gradient",
    "label_flip",
    "mixed",
    "none",
)


def _direction(update: ClientUpdate, global_parameters: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Split the upload into (reference, direction) for direction-space attacks."""
    w = np.asarray(update.parameters, dtype=np.float64)
    if global_parameters is None:
        return np.zeros_like(w), w
    g = np.asarray(global_parameters, dtype=np.float64)
    return g, w - g


class SignFlipAttack(Attack):
    """Reverse (and optionally amplify) the client's update direction."""

    name = "sign_flip"

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = check_positive("scale", scale)

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        ref, direction = _direction(update, global_parameters)
        return update.copy_with_parameters(ref - self.scale * direction)


class ScalingAttack(Attack):
    """Multiply the update direction by a large factor (model-replacement style)."""

    name = "scaling"

    def __init__(self, factor: float = 10.0) -> None:
        self.factor = check_positive("factor", factor)

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        ref, direction = _direction(update, global_parameters)
        return update.copy_with_parameters(ref + self.factor * direction)


class GaussianNoiseAttack(Attack):
    """Replace the update direction with isotropic Gaussian noise."""

    name = "gaussian_noise"

    def __init__(self, std: float = 1.0) -> None:
        self.std = check_non_negative("std", std)

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        ref, direction = _direction(update, global_parameters)
        noise = rng.normal(0.0, self.std if self.std > 0 else 1.0, size=direction.shape)
        # Scale the noise to the honest direction's magnitude so the forged
        # vector is plausible in norm but wrong in direction.
        norm = np.linalg.norm(direction)
        noise_norm = np.linalg.norm(noise)
        if norm > 0 and noise_norm > 0:
            noise = noise * (norm / noise_norm)
        return update.copy_with_parameters(ref + noise)


class ZeroGradientAttack(Attack):
    """Upload an unchanged model (free-riding: zero update direction)."""

    name = "zero_gradient"

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        ref, _direction_vec = _direction(update, global_parameters)
        if global_parameters is None:
            return update.copy_with_parameters(np.zeros_like(update.parameters))
        return update.copy_with_parameters(ref.copy())


class MixedAttack(Attack):
    """A heterogeneous adversary: each forgery draws one of the base primitives.

    Every malicious upload independently samples (from the caller's RNG, so
    the choice sequence is deterministic per seed and identical across
    executor backends) one of sign-flip, scaling, Gaussian-noise, or
    zero-gradient — the setting where no single-attack-tuned defense is
    automatically well-sized, which is what the hyper-parameter search bench
    stresses.
    """

    name = "mixed"

    def __init__(self, attacks: tuple[Attack, ...] | None = None) -> None:
        self.attacks: tuple[Attack, ...] = tuple(attacks) if attacks else (
            SignFlipAttack(),
            ScalingAttack(),
            GaussianNoiseAttack(),
            ZeroGradientAttack(),
        )
        if not self.attacks:
            raise ValueError("MixedAttack needs at least one sub-attack")

    def apply(
        self,
        update: ClientUpdate,
        rng: np.random.Generator,
        *,
        global_parameters: np.ndarray | None = None,
    ) -> ClientUpdate:
        chosen = self.attacks[int(rng.integers(len(self.attacks)))]
        return chosen.apply(update, rng, global_parameters=global_parameters)


def make_attack(name: str, **kwargs) -> Attack:
    """Factory resolving an attack by name (see :data:`ATTACKS`).

    ``"label_flip"`` resolves to
    :class:`~repro.attacks.label_flip.LabelFlipAttack`'s direction-space
    approximation.
    """
    from repro.attacks.base import NoAttack

    key = name.strip().lower()
    if key == "sign_flip":
        return SignFlipAttack(**kwargs)
    if key == "scaling":
        return ScalingAttack(**kwargs)
    if key == "gaussian_noise":
        return GaussianNoiseAttack(**kwargs)
    if key == "zero_gradient":
        return ZeroGradientAttack(**kwargs)
    if key == "label_flip":
        return LabelFlipAttack(**kwargs)
    if key == "mixed":
        return MixedAttack(**kwargs)
    if key == "none":
        return NoAttack()
    raise ValueError(
        f"unknown attack {name!r}; expected one of: " + ", ".join(ATTACKS)
    )
