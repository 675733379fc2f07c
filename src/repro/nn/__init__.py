"""From-scratch NumPy neural-network substrate.

The paper trains small MNIST models with mini-batch SGD on every federated
client (Algorithm 1, Procedure I).  This package provides the minimal deep
learning framework needed for that: composable modules with explicit
forward/backward passes, softmax cross-entropy and MSE losses, an SGD
optimizer with momentum and learning-rate schedules, and flat parameter-vector
access used by the incentive mechanism and the blockchain.

Design notes
------------
* All math is vectorised NumPy on ``float64`` (batch dimension first).
* Modules own their parameters as :class:`repro.nn.module.Parameter` objects
  holding both the value and the accumulated gradient; ``zero_grad`` resets
  the gradients in place (no reallocation in the training loop).
* ``get_flat_parameters`` / ``set_flat_parameters`` give the single-vector
  view of a model used throughout FAIR-BFL (clients upload it, Algorithm 2
  clusters it, Equation (1) averages it).
"""

from repro.nn.initializers import he_init, xavier_init, zeros_init
from repro.nn.layers import Dropout, Flatten, Linear, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.losses import Loss, MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.models import build_model, LogisticRegressionModel, MLPClassifier
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, ConstantLR, InverseTimeDecayLR, LRSchedule
from repro.nn.parameters import (
    accuracy_of_parameters,
    get_flat_parameters,
    set_flat_parameters,
)

__all__ = [
    "he_init",
    "xavier_init",
    "zeros_init",
    "Dropout",
    "Flatten",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "Loss",
    "MSELoss",
    "SoftmaxCrossEntropyLoss",
    "accuracy",
    "build_model",
    "LogisticRegressionModel",
    "MLPClassifier",
    "Module",
    "Parameter",
    "Sequential",
    "SGD",
    "ConstantLR",
    "InverseTimeDecayLR",
    "LRSchedule",
    "accuracy_of_parameters",
    "get_flat_parameters",
    "set_flat_parameters",
]
