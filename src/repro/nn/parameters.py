"""Flat parameter-vector access for models.

FAIR-BFL treats model state as a single flat vector ``w`` everywhere outside
the local training loop: clients upload ``w^i_{r+1}``, miners exchange sets of
those vectors, Algorithm 2 clusters them, Equation (1) averages them, and the
winning miner packs the global ``w_{r+1}`` into a block.  These helpers
convert between a :class:`repro.nn.module.Module` and that flat representation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.utils.vectors import flatten_arrays, unflatten_array

__all__ = ["get_flat_parameters", "set_flat_parameters", "accuracy_of_parameters"]


def get_flat_parameters(model: Module) -> np.ndarray:
    """Concatenate all parameters of ``model`` into one 1-D ``float64`` vector."""
    return flatten_arrays(p.value for p in model.parameters())


def set_flat_parameters(model: Module, vector: np.ndarray) -> None:
    """Load a flat vector produced by :func:`get_flat_parameters` back into ``model``.

    Raises
    ------
    ValueError
        If the vector length does not match the model's parameter count.
    """
    params = list(model.parameters())
    shapes = [p.shape for p in params]
    arrays = unflatten_array(vector, shapes)
    for param, arr in zip(params, arrays):
        param.value[...] = arr


def accuracy_of_parameters(
    model: Module, vector: np.ndarray, images: np.ndarray, labels: np.ndarray
) -> float:
    """Accuracy of ``model`` on ``(images, labels)`` under the flat parameters ``vector``.

    Loads ``vector`` into ``model`` and leaves it in evaluation mode.
    """
    set_flat_parameters(model, vector)
    model.eval()
    return accuracy(model.forward(images), labels)
