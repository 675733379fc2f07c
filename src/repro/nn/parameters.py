"""Flat parameter-vector access for models.

FAIR-BFL treats model state as a single flat vector ``w`` everywhere outside
the local training loop: clients upload ``w^i_{r+1}``, miners exchange sets of
those vectors, Algorithm 2 clusters them, Equation (1) averages them, and the
winning miner packs the global ``w_{r+1}`` into a block.  These helpers
convert between a :class:`repro.nn.module.Module` and that flat representation.

A model that is loaded from a flat vector before every use (the scratch model
of the local training loop) is *packed* once with :func:`pack_parameters`: its
parameters become views of one flat value buffer and one flat gradient buffer,
so loading is a single ``copyto``, reading a single ``copy``, and an optimiser
step two or three passes over the pair.  Unpacked models (the global model of
a trainer or server) keep the per-parameter path.
"""

from __future__ import annotations

import numpy as np

from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.utils.vectors import flatten_arrays, unflatten_array

__all__ = [
    "pack_parameters",
    "get_flat_parameters",
    "set_flat_parameters",
    "accuracy_of_parameters",
]


def pack_parameters(model: Module) -> Module:
    """Re-home every parameter of ``model`` in two flat buffers; returns ``model``.

    Each ``Parameter.value`` / ``.grad`` becomes a view (same shape, same
    contents, :func:`get_flat_parameters` order) of ``model.packed = (values,
    grads)``.  Layers keep working on their own parameters unchanged.  Pack a
    finished model: a layer appended later is not in the buffers, and
    rebinding a parameter's ``value`` or ``grad`` would detach it from them
    (every layer and optimiser here updates in place).  A pickled or
    deep-copied packed model comes back unpacked.
    """
    params = list(model.parameters())
    values = flatten_arrays(p.value for p in params)
    grads = flatten_arrays(p.grad for p in params)
    lo = 0
    for p in params:
        hi, shape = lo + p.size, p.shape
        p.value = values[lo:hi].reshape(shape)
        p.grad = grads[lo:hi].reshape(shape)
        lo = hi
    model.packed = (values, grads)
    return model


def get_flat_parameters(model: Module) -> np.ndarray:
    """All parameters of ``model`` as one 1-D ``float64`` vector the caller owns."""
    if model.packed is not None:
        return model.packed[0].copy()
    return flatten_arrays(p.value for p in model.parameters())


def set_flat_parameters(model: Module, vector: np.ndarray) -> None:
    """Load a flat vector produced by :func:`get_flat_parameters` back into ``model``.

    Raises
    ------
    ValueError
        If the vector length does not match the model's parameter count.
    """
    if model.packed is not None:
        values = model.packed[0]
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size != values.size:
            raise ValueError(
                f"vector of length {vector.size} cannot be loaded into a model "
                f"of {values.size} parameters"
            )
        np.copyto(values, vector)
        return
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
