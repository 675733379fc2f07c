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
a trainer or server) keep the per-parameter path.  :func:`bind_parameters`
does the slicing, also onto the cohort engine's ``(clients, P)`` matrices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.utils.vectors import flatten_arrays, unflatten_array

__all__ = [
    "bind_parameters",
    "pack_parameters",
    "get_flat_parameters",
    "set_flat_parameters",
    "accuracy_of_parameters",
]


def bind_parameters(model: Module, values: np.ndarray, grads: np.ndarray | None = None) -> Module:
    """Make every parameter of ``model`` a view of flat buffers; returns ``model``.

    The last axis of ``values`` / ``grads`` holds the parameters in
    :func:`get_flat_parameters` order and is split per parameter; leading axes
    are kept, so a ``(P,)`` plane binds a ``Linear`` weight as ``(in, out)`` and
    a cohort's ``(clients, P)`` matrix binds it as ``(clients, in, out)`` — a
    view either way (splitting one axis never copies), so layer and optimiser
    writes land in the buffers.  ``grads=None`` leaves every ``.grad`` where it
    is (a forward-only binding).  ``model.packed`` records the buffers.
    """
    params = list(model.parameters())
    lead = 0 if model.packed is None else model.packed[0].ndim - 1
    shapes = [p.shape[lead:] for p in params]
    total = sum(math.prod(shape) for shape in shapes)
    for flat in (values, grads):
        if flat is not None and flat.shape[-1] != total:
            raise ValueError(
                f"a buffer of shape {flat.shape} cannot hold a model of {total} parameters"
            )
    lo = 0
    for p, shape in zip(params, shapes):
        hi = lo + math.prod(shape)
        p.value = values[..., lo:hi].reshape(values.shape[:-1] + shape)
        if grads is not None:
            p.grad = grads[..., lo:hi].reshape(grads.shape[:-1] + shape)
        lo = hi
    model.packed = (values, grads)
    return model


def pack_parameters(model: Module) -> Module:
    """Re-home every parameter of ``model`` in two flat buffers; returns ``model``.

    Each ``Parameter.value`` / ``.grad`` becomes a view (same shape, same
    contents, :func:`get_flat_parameters` order) of ``model.packed = (values,
    grads)``, bound by :func:`bind_parameters`.  Layers keep working on their
    own parameters unchanged.  Pack a finished model: a layer appended later is
    not in the buffers, and rebinding a parameter's ``value`` or ``grad`` would
    detach it from them (every layer and optimiser here updates in place).  A
    pickled or deep-copied packed model comes back unpacked.
    """
    params = list(model.parameters())
    values = flatten_arrays(p.value for p in params)
    grads = flatten_arrays(p.grad for p in params)
    return bind_parameters(model, values, grads)


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

    Loads ``vector`` into ``model`` and leaves it there.
    """
    set_flat_parameters(model, vector)
    return accuracy(model.forward(images), labels)
