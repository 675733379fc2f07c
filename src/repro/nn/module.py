"""Module system: parameters, base module, and sequential containers.

The design mirrors the familiar ``torch.nn.Module`` contract at the small
scale this reproduction needs:

* a :class:`Parameter` couples a value array with its gradient accumulator;
* a :class:`Module` exposes ``forward``/``backward`` and enumerates its
  parameters (recursively through registered sub-modules);
* a :class:`Sequential` chains modules and propagates gradients in reverse.

``backward`` takes the gradient of the loss with respect to the module output
and returns the gradient with respect to the module input, accumulating
parameter gradients as a side effect; the per-client SGD loop of Algorithm 1,
which takes one step per backward, asks it to *write* them instead
(``accumulate=False``) and so never zeroes them.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter:
    """A trainable tensor together with its gradient accumulator."""

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

    def zero_grad(self) -> None:
        """Reset the gradient accumulator in place."""
        self.grad.fill(0.0)

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

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- gradient management ------------------------------------------------
    def zero_grad(self) -> None:
        """Reset every parameter gradient of this module tree."""
        for p in self.parameters():
            p.zero_grad()

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

        A module that serves as a whole *model* (``Sequential``, ``Linear``)
        also takes ``need_input_grad=False``, by which a training loop says it
        will not read that gradient; layers inside a container never see it.

        A module that holds parameters (its own or its children's) also takes
        ``accumulate=False``: every parameter gradient is then *overwritten*
        with this call's gradient — the same bytes as ``zero_grad()`` followed
        by an accumulating backward — so a loop that steps after every
        backward need not zero anything.  The default accumulates.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order.

    The forward pass caches nothing on the container itself; each layer caches
    whatever it needs to compute its own backward pass, which keeps memory use
    proportional to the layer count and batch size.
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: list[Module] = []
        for i, layer in enumerate(layers):
            self.layers.append(self.register_module(f"layer{i}", layer))
        self._resolve()

    def append(self, layer: Module) -> "Sequential":
        """Append one more layer to the chain."""
        self.layers.append(self.register_module(f"layer{len(self.layers)}", layer))
        self._resolve()
        return self

    def _resolve(self) -> None:
        """Work out, once per chain, what ``backward`` asks of which layer."""
        from repro.nn.layers import Flatten, Linear  # layers imports this module

        #: The layers that hold parameters, i.e. take ``accumulate``.
        self._parametrised = {
            layer for layer in self.layers if next(layer.parameters(), None) is not None
        }
        #: The first ``Linear`` if only ``Flatten`` layers precede it, else ``None``:
        #: the one layer whose input gradient nobody inside the chain reads.
        self._input: Module | None = None
        for layer in self.layers:
            if isinstance(layer, Linear):
                self._input = layer
            if not isinstance(layer, Flatten):
                break

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(
        self,
        grad_output: np.ndarray,
        *,
        need_input_grad: bool = True,
        accumulate: bool = True,
    ) -> np.ndarray | None:
        """Back-propagate through the chain in reverse.

        ``need_input_grad=False`` says the caller will not read the returned
        gradient (a training step only reads the parameter gradients).  The
        first parametrised layer then skips its input gradient — when only
        ``Flatten`` precedes it, so that nothing else would have read it —
        and the result is ``None``; parameter gradients are the same bytes.

        ``accumulate=False`` reaches every layer that holds parameters, which
        then overwrites its gradients instead of adding to them.
        """
        grad = np.asarray(grad_output, dtype=np.float64)
        skip = None if need_input_grad else self._input
        write = {} if accumulate else {"accumulate": False}
        for layer in reversed(self.layers):
            kwargs = write if layer in self._parametrised else {}
            if layer is skip:
                layer.backward(grad, need_input_grad=False, **kwargs)
                return None
            grad = layer.backward(grad, **kwargs)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
