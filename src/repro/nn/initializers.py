"""Weight initialisation schemes.

Each initialiser takes the target ``shape`` (and, when it draws, a
``numpy.random.Generator``) and returns a freshly allocated ``float64`` array.  Passing the generator
explicitly keeps client-model initialisation reproducible and, importantly for
FL, lets every client start from the *same* global parameters when required
(the FAIR-BFL orchestrator initialises one global model and broadcasts it via
the genesis block).
"""

from __future__ import annotations

import numpy as np

__all__ = ["zeros_init", "xavier_init", "he_init"]


def zeros_init(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (used for biases); it draws nothing."""
    return np.zeros(shape, dtype=np.float64)


def xavier_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Xavier/Glorot uniform initialisation for (fan_in, fan_out) weight matrices."""
    if len(shape) != 2:
        raise ValueError(f"xavier_init expects a 2-D weight shape, got {shape}")
    fan_in, fan_out = shape
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialisation, appropriate before ReLU layers."""
    if len(shape) != 2:
        raise ValueError(f"he_init expects a 2-D weight shape, got {shape}")
    fan_in = shape[0]
    std = float(np.sqrt(2.0 / fan_in))
    return rng.normal(0.0, std, size=shape).astype(np.float64)
