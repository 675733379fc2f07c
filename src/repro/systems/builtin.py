"""The five built-in systems, re-homed as registered plugins.

Each class wraps one :class:`~repro.fl.trainer.Trainer` behind the
:class:`~repro.systems.registry.System` protocol: ``build_config`` delegates to the scenario's authoritative config
builder (``spec.fairbfl_config()`` and friends — duck-typed, so this module
never imports the scenario layer), and ``build`` instantiates the trainer
inside a :class:`~repro.systems.registry.TrainerRun` for the engine to
step.  Importing this module registers all five; everything else (CLI choices,
scenario validation, the engine's dispatch and dataset skipping) derives from
the registrations.

Capability summary:

============== ============== =========== ======= ======== ====== ===
system         needs_dataset  round_modes attacks defenses cohort net
============== ============== =========== ======= ======== ====== ===
fairbfl        yes            yes         yes     yes      yes    yes
fairbfl-discard yes           yes         yes     yes      yes    yes
fedavg         yes            no          no      yes      yes    no
fedprox        yes            no          no      yes      yes    no
blockchain     no             no          no      no       no     no
============== ============== =========== ======= ======== ====== ===

The ``net`` capability (``topology``/``peer_k``/``partition``/``churn``) is
FAIR-BFL-only: the gossip substrate needs per-miner chain views to diverge
and reconcile, while the vanilla blockchain baseline models fork costs with
aggregate per-round statistics (:mod:`repro.sim.vanilla_blockchain`) instead
of per-node state.
"""

from __future__ import annotations

from repro.core.fairbfl import FairBFLTrainer
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.fedprox import FedProxTrainer
from repro.sim.vanilla_blockchain import VanillaBlockchainSimulator
from repro.systems.registry import (
    System,
    SystemCapabilities,
    TrainerRun,
    register_system,
)

__all__ = [
]


class FairBFLSystem(System):
    """FAIR-BFL: the paper's flexible, incentive-redesigned BFL system."""

    name = "fairbfl"
    description = "FAIR-BFL with the keep strategy (Algorithm 1 + Algorithm 2 incentives)"
    capabilities = SystemCapabilities(
        needs_dataset=True,
        round_modes=True,
        attacks=True,
        defenses=True,
        cohort=True,
        net=True,
    )

    def build_config(self, spec):
        return spec.fairbfl_config()

    def build(self, spec, dataset):
        return TrainerRun(FairBFLTrainer(dataset, self.build_config(spec)))


class FairBFLDiscardSystem(FairBFLSystem):
    """FAIR-BFL with the discard strategy (low-contribution updates dropped).

    ``spec.fairbfl_config()`` forces ``strategy="discard"`` when the spec's
    system is this one, so the shared build path needs no special casing.
    """

    name = "fairbfl-discard"
    description = "FAIR-BFL with the discard strategy (Section 5.3 cost-effectiveness)"


class FedAvgSystem(System):
    """The FedAvg baseline (central server, no ledger)."""

    name = "fedavg"
    description = "FedAvg baseline: central aggregation, no blockchain costs"
    capabilities = SystemCapabilities(needs_dataset=True, defenses=True, cohort=True)

    def build_config(self, spec):
        return spec.fedavg_config()

    def build(self, spec, dataset):
        return TrainerRun(FedAvgTrainer(dataset, self.build_config(spec)))


class FedProxSystem(System):
    """The FedProx baseline (proximal local objective, straggler drops)."""

    name = "fedprox"
    description = "FedProx baseline: proximal term + straggler dropping"
    capabilities = SystemCapabilities(needs_dataset=True, defenses=True, cohort=True)

    def build_config(self, spec):
        return spec.fedprox_config()

    def build(self, spec, dataset):
        return TrainerRun(FedProxTrainer(dataset, self.build_config(spec)))


class VanillaBlockchainSystem(System):
    """The un-redesigned ledger baseline; needs no federated dataset."""

    name = "blockchain"
    description = "Vanilla blockchain baseline: per-worker transactions, real mining"
    capabilities = SystemCapabilities(needs_dataset=False)

    def build_config(self, spec):
        return spec.blockchain_config()

    def build(self, spec, dataset):
        return TrainerRun(VanillaBlockchainSimulator(self.build_config(spec)))


# Registration order defines the CLI's choice order and compare's roster;
# replace=True keeps module re-imports (importlib.reload) harmless.
for _system in (
    FairBFLSystem(),
    FairBFLDiscardSystem(),
    FedAvgSystem(),
    FedProxSystem(),
    VanillaBlockchainSystem(),
):
    register_system(_system, replace=True)
del _system
