"""The cohort ("batched across clients") container over the serial layers.

The serial training path of Procedure I runs one Python loop per client, each
step a handful of small ``(batch, features)`` products.  :class:`CohortModel`
runs a whole cohort at once — ``(clients, batch, features)`` activations
against a flat ``(clients, params)`` parameter matrix — and owns no math of its
own: it binds the matrix onto a template's own :class:`~repro.nn.layers.Linear`
and activation objects (:func:`repro.nn.parameters.bind_parameters`) and walks
them.  The loss, the metric and the optimiser step are likewise the serial
ones (:mod:`repro.nn.losses`, :mod:`repro.nn.metrics`, :mod:`repro.nn.optim`).

That a stacked call yields, per client, the bytes of that client's 2-D call
rests on two properties of NumPy, everything else being elementwise:

* a stacked ``matmul`` reduces each client slice exactly like the 2-D
  product of that slice;
* reductions over the last, contiguous axis (``max``, ``sum``, ``mean``,
  ``argmax``) use the same pairwise summation whatever the leading axes.

``tests/test_cohort_kernels.py::test_stacked_operands_equal_their_slices``
holds every layer, the loss and ``accuracy`` to both.  The layers are the
ones every shipped model is built from: ``Flatten``, ``Linear`` and ``ReLU``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Flatten, Linear
from repro.nn.module import Module
from repro.nn.parameters import bind_parameters, pack_parameters

__all__ = ["CohortModel"]


class CohortModel:
    """A template model run on a flat ``(clients, P)`` parameter matrix.

    :meth:`from_module` takes ownership of the template: ``layers`` are the
    template's own objects, and between a call here and :meth:`release` their
    parameters are views of the caller's matrices.  One instance can be reused
    across rounds and cohort chunks (but not across threads).
    """

    def __init__(self, template: Module, layers: list[Module]) -> None:
        self.template = template
        self.layers = layers
        self._own = pack_parameters(template).packed
        self.num_parameters = int(self._own[0].shape[0])

    @classmethod
    def from_module(cls, model: Module) -> "CohortModel":
        """Adopt ``model`` (a Flatten/Linear/ReLU stack) as the template.

        The flat parameter layout follows ``model.parameters()`` order (per
        ``Linear``: weight then bias), i.e. the exact layout of
        :func:`~repro.nn.parameters.get_flat_parameters`.  ``Flatten`` is not
        walked: the input is flattened to ``(clients, batch, -1)`` once (every
        shipped model starts with it).
        """
        layers = [
            layer
            for layer in getattr(model, "layers", [model])
            if not isinstance(layer, Flatten)
        ]
        return cls(model, layers)

    def release(self) -> None:
        """Re-bind the template to its own storage, unpinning the caller's matrices."""
        bind_parameters(self.template, *self._own)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stacked forward pass: ``params`` is (clients, P), ``x`` (clients, batch, ...)."""
        if params.ndim != 2 or params.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected parameters of shape (clients, {self.num_parameters}), "
                f"got {params.shape}"
            )
        bind_parameters(self.template, params)
        out = np.asarray(x, dtype=np.float64)
        out = out.reshape(out.shape[0], out.shape[1], -1)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, params: np.ndarray, grads: np.ndarray, grad_output: np.ndarray) -> None:
        """Stacked backward pass; overwrites the flat ``grads`` matrix.

        ``grads`` is scratch: every column is written exactly once (it need
        not be zeroed, and nothing accumulates across calls).  Nobody reads
        the gradient w.r.t. the input, so a first ``Linear`` skips it.
        """
        if grads.shape != params.shape or not grads.flags.c_contiguous:
            raise ValueError(
                f"grads must be a C-contiguous matrix of shape {params.shape}, "
                f"got shape {grads.shape}"
            )
        bind_parameters(self.template, params, grads)
        g = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            if isinstance(layer, Linear):
                g = layer.backward(g, need_input_grad=layer is not self.layers[0])
            else:
                g = layer.backward(g)
