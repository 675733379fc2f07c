"""Module system: parameters, base module, and sequential containers.

The design follows the familiar ``torch.nn.Module`` shape at the small scale
this reproduction needs:

* a :class:`Parameter` couples a value array with its gradient buffer;
* a :class:`Module` exposes ``forward``/``backward`` and enumerates its
  parameters (recursively through registered sub-modules);
* a :class:`Sequential` chains modules and propagates gradients in reverse.

There is one gradient contract, the one the per-client SGD loop of
Algorithm 1 needs, which takes one step per backward: ``backward`` *writes*
every parameter gradient (nothing accumulates, so nothing is ever zeroed),
and a whole model's backward returns nothing — a training step reads the
parameter gradients, never the gradient with respect to the model input.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor together with its gradient buffer.

    ``grad`` holds what the last ``backward`` wrote, not a running sum.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.name = str(name)
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.value.shape)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Module:
    """Base class for all layers and models."""

    #: ``(values, grads)`` once :func:`repro.nn.parameters.bind_parameters` has
    #: re-homed every parameter of this tree as views of flat buffers (``grads``
    #: is ``None`` under a forward-only binding).
    packed: tuple[np.ndarray, np.ndarray | None] | None = None

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}

    def __getstate__(self) -> dict:
        # Pickling (or deep-copying) turns views into independent arrays, so a
        # copy of a packed model is a correct *unpacked* one, never a packed
        # model whose buffers its parameters no longer share.
        state = self.__dict__.copy()
        state.pop("packed", None)
        return state

    # -- registration -----------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        """Register ``param`` under ``name`` and return it."""
        if not isinstance(param, Parameter):
            raise TypeError(f"expected Parameter, got {type(param).__name__}")
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name`` and return it."""
        if not isinstance(module, Module):
            raise TypeError(f"expected Module, got {type(module).__name__}")
        self._modules[name] = module
        return module

    # -- traversal --------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children, depth-first."""
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def clear_caches(self) -> None:
        """Drop the inputs this module tree cached for a backward pass.

        A training loop calls it after its last step, so the last mini-batch
        is not kept alive into whatever runs next.
        """
        for child in self._modules.values():
            child.clear_caches()

    # -- computation --------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output for a batch ``x`` (batch-first)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. the input.

        Every parameter gradient is *written* with this call's gradient, so a
        loop that steps after every backward zeroes nothing.  A layer that
        holds parameters also takes ``need_input_grad=False``, by which its
        container says nobody will read the input gradient.
        """
        raise NotImplementedError


class Sequential(Module):
    """Chain of modules applied in order.

    The forward pass caches nothing on the container itself; each layer caches
    whatever it needs to compute its own backward pass, which keeps memory use
    proportional to the layer count and batch size.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: list[Module] = [
            self.register_module(f"layer{i}", layer) for i, layer in enumerate(layers)
        ]
        #: The first layer that holds parameters: every layer ahead of it holds
        #: none, so nobody reads the input gradient it would return.
        self._input: Module | None = next(
            (layer for layer in self.layers if next(layer.parameters(), None) is not None),
            None,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> None:
        """Back-propagate through the chain in reverse, writing every parameter gradient.

        A training step reads only the parameter gradients, so the walk stops
        at the first layer that holds parameters, which skips its own input
        gradient; the layers ahead of it have nothing to write.
        """
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            if layer is self._input:
                layer.backward(grad, need_input_grad=False)
                return
            grad = layer.backward(grad)
