"""FAIR-BFL reproduction library.

A full, from-scratch Python implementation of "FAIR-BFL: Flexible and
Incentive Redesign for Blockchain-based Federated Learning" (ICPP 2022),
including every substrate the paper depends on: a NumPy neural-network
framework, a synthetic MNIST-like dataset with federated partitioning, RSA
signing, a proof-of-work blockchain, FedAvg/FedProx baselines, the
clustering-based contribution/incentive mechanism, attack models, and the
delay simulation behind the paper's latency figures.

Quickstart
----------
>>> from repro import api
>>> history = api.run("fairbfl", num_clients=10, num_samples=600, num_rounds=3)
>>> history.average_delay() > 0
True

:mod:`repro.api` is the stable public facade (``run``/``sweep``/``compare``/
``load_scenario``/``list_systems``); systems are pluggable through the
registry in :mod:`repro.systems` (see ``docs/api.md``).
"""

from repro.core.fairbfl import FairBFLTrainer
from repro.core.flexibility import OperatingMode
from repro.datasets.federated import build_federated_dataset
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.fedprox import FedProxTrainer
from repro.fl.history import TrainingHistory
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioMatrix, ScenarioSpec
from repro.systems import System, SystemCapabilities, register_system, system_names
from repro import api

__version__ = "1.2.0"

__all__ = [
    "api",
    "System",
    "SystemCapabilities",
    "register_system",
    "system_names",
    "FairBFLTrainer",
    "OperatingMode",
    "build_federated_dataset",
    "FedAvgTrainer",
    "FedProxTrainer",
    "TrainingHistory",
    "ExperimentEngine",
    "ScenarioMatrix",
    "ScenarioSpec",
    "__version__",
]
