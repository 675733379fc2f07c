"""The five built-in systems, re-homed as registered plugins.

Each class wraps one :class:`~repro.fl.trainer.Trainer` behind the
:class:`~repro.systems.registry.System` protocol: ``build`` hands the
scenario spec itself to the trainer (read duck-typed, so this module never
imports the scenario layer) inside a
:class:`~repro.systems.registry.TrainerRun` for the engine to step.  A rule
that reads one field is declared on that field of the scenario spec and
applies to every system; ``validate`` holds only the rules that read several
fields, which only FAIR-BFL has (its attacker bounds and network rules).
Importing this module registers all five; everything else (CLI choices,
scenario validation, the engine's dispatch and dataset skipping) derives from
the registrations.

The ``net`` capability (``topology``/``peer_k``/``partition``/``churn``) is
FAIR-BFL-only: the gossip substrate needs per-miner chain views to diverge
and reconcile, while the vanilla blockchain baseline models fork costs with
aggregate per-round statistics (:mod:`repro.sim.vanilla_blockchain`) instead
of per-node state.
"""

from __future__ import annotations

from repro.core.fairbfl import FairBFLTrainer
from repro.core.flexibility import OperatingMode
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.fedprox import FedProxTrainer
from repro.net.schedule import parse_churn, parse_partition
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

    def validate(self, spec) -> None:
        if spec.max_attackers < spec.min_attackers:
            raise ValueError(
                "min_attackers/max_attackers must satisfy min_attackers <= "
                f"max_attackers, got ({spec.min_attackers}, {spec.max_attackers})"
            )
        if spec.topology == "global":
            return  # the spec already rejects partition/churn without a substrate
        if OperatingMode.parse(spec.mode) is OperatingMode.FL_ONLY:
            raise ValueError(
                "non-'global' topologies need the blockchain procedures; "
                "mode='fl_only' has no miners to gossip between"
            )
        if spec.round_mode != "sync":
            raise ValueError(
                "non-'global' topologies currently require round_mode='sync' "
                f"(got {spec.round_mode!r})"
            )
        if spec.topology == "random_k" and not (1 <= spec.peer_k < max(spec.miners, 2)):
            raise ValueError(
                f"peer_k must lie in [1, miners) for topology='random_k', "
                f"got peer_k={spec.peer_k} with {spec.miners} miners"
            )
        # Parse both axis strings now so a malformed window or an
        # all-offline churn trace fails at validation, not mid-run.
        parse_partition(spec.partition, spec.miners)
        parse_churn(spec.churn, spec.miners)

    def build(self, spec, dataset):
        return TrainerRun(FairBFLTrainer(dataset, spec))


class FairBFLDiscardSystem(FairBFLSystem):
    """FAIR-BFL with the discard strategy (low-contribution updates dropped).

    The trainer reads ``system="fairbfl-discard"`` off the spec and runs the
    discard strategy whatever its ``strategy`` field says.
    """

    name = "fairbfl-discard"
    description = "FAIR-BFL with the discard strategy (Section 5.3 cost-effectiveness)"


class FedAvgSystem(System):
    """The FedAvg baseline (central server, no ledger)."""

    name = "fedavg"
    description = "FedAvg baseline: central aggregation, no blockchain costs"
    capabilities = SystemCapabilities(needs_dataset=True, defenses=True, cohort=True)

    def build(self, spec, dataset):
        return TrainerRun(FedAvgTrainer(dataset, spec))


class FedProxSystem(FedAvgSystem):
    """The FedProx baseline (proximal local objective, straggler drops)."""

    name = "fedprox"
    description = "FedProx baseline: proximal term + straggler dropping"

    def build(self, spec, dataset):
        return TrainerRun(FedProxTrainer(dataset, spec))


class VanillaBlockchainSystem(System):
    """The un-redesigned ledger baseline; needs no federated dataset."""

    name = "blockchain"
    description = "Vanilla blockchain baseline: per-worker transactions, real mining"
    capabilities = SystemCapabilities(needs_dataset=False)

    def build(self, spec, dataset):
        return TrainerRun(VanillaBlockchainSimulator(spec))


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
