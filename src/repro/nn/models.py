"""Reference model architectures for the MNIST-style task.

The paper does not spell out the exact MNIST model architecture; like most of
the BFL literature it uses a small fully-connected classifier.  We provide two
standard choices plus a factory so experiments can swap the architecture
without touching the orchestrator:

* :class:`LogisticRegressionModel` — single linear layer (convex objective,
  matches the strongly-convex assumptions of Theorem 3.1 when regularised);
* :class:`MLPClassifier` — one or more hidden ReLU layers (the default for the
  accuracy figures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.utils.rng import new_rng

__all__ = ["MODELS", "LogisticRegressionModel", "ModelFactory"]

#: The architecture names :func:`build_model` accepts (the scenario's ``model_name`` choices).
MODELS = ("logreg", "mlp")


class LogisticRegressionModel(Sequential):
    """Multinomial logistic regression: ``Flatten -> Linear``."""

    def __init__(self, input_dim: int, num_classes: int, rng: np.random.Generator) -> None:
        if input_dim <= 0 or num_classes <= 1:
            raise ValueError(
                f"input_dim must be positive and num_classes > 1, got "
                f"({input_dim}, {num_classes})"
            )
        super().__init__(Flatten(), Linear(input_dim, num_classes, rng, init="xavier"))


class MLPClassifier(Sequential):
    """Multi-layer perceptron with ReLU hidden layers."""

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        *,
        hidden_sizes: tuple[int, ...] = (64,),
    ) -> None:
        if input_dim <= 0 or num_classes <= 1:
            raise ValueError(
                f"input_dim must be positive and num_classes > 1, got "
                f"({input_dim}, {num_classes})"
            )
        if any(h <= 0 for h in hidden_sizes):
            raise ValueError(f"hidden sizes must all be positive, got {hidden_sizes}")
        layers: list[Module] = [Flatten()]
        prev = int(input_dim)
        for h in hidden_sizes:
            layers.append(Linear(prev, int(h), rng, init="he"))
            layers.append(ReLU())
            prev = int(h)
        layers.append(Linear(prev, int(num_classes), rng, init="xavier"))
        super().__init__(*layers)


def build_model(
    name: str,
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    *,
    hidden_sizes: tuple[int, ...] = (64,),
) -> Module:
    """Factory resolving a model architecture by name.

    Parameters
    ----------
    name:
        ``"logreg"`` or ``"mlp"``.
    input_dim, num_classes:
        Task dimensions.
    rng:
        Generator used to initialise weights.
    hidden_sizes:
        Hidden layer widths (MLP only).
    """
    if name == "logreg":
        return LogisticRegressionModel(input_dim, num_classes, rng)
    if name == "mlp":
        return MLPClassifier(input_dim, num_classes, rng, hidden_sizes=hidden_sizes)
    raise ValueError(f"unknown model name {name!r}; expected one of {MODELS}")


@dataclass(frozen=True)
class ModelFactory:
    """Value-typed zero-argument model builder.

    The trainers build their clients' shared
    :class:`~repro.fl.client.ModelWorkspace` (the scratch model of local
    training) over this factory, and the cohort backend groups clients by it:
    two equal factories build the same model, which a ``lambda`` cannot
    promise.  It derives the (deterministic) init RNG from
    ``(seed, label, "model-init")`` on every call, exactly as the trainers'
    former lambdas did.

    Attributes
    ----------
    model_name, input_dim, num_classes, hidden_sizes:
        Forwarded to :func:`build_model`.
    seed, label:
        The trainer's seed and label, which pin the weight-init RNG stream.
    """

    model_name: str
    input_dim: int
    num_classes: int
    seed: int
    label: str
    hidden_sizes: tuple[int, ...] = (64,)

    def __call__(self) -> Module:
        return build_model(
            self.model_name,
            self.input_dim,
            self.num_classes,
            new_rng(self.seed, self.label, "model-init"),
            hidden_sizes=self.hidden_sizes,
        )
