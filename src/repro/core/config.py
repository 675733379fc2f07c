"""Configuration of the FAIR-BFL orchestrator.

Defaults follow the paper's Section 5.1: ``n = 100`` clients, ``m = 2``
miners, ``η = 0.01``, ``E = 5``, ``B = 10``, non-IID data, 100 communication
rounds, DBSCAN-based contribution identification.

This class is the *authoritative* validator for the FAIR-BFL systems: the
registered systems build it from a scenario via
``ScenarioSpec.fairbfl_config()``, which is how scenario validation stays in
lockstep with the rules enforced here (see :mod:`repro.systems`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.gradient_attacks import ATTACKS
from repro.core.flexibility import OperatingMode
from repro.fl.client import LocalTrainingConfig
from repro.fl.cohort import check_executor_settings
from repro.fl.robust import check_defense
from repro.incentive.contribution import ContributionConfig
from repro.incentive.strategies import STRATEGIES
from repro.net.schedule import parse_churn, parse_partition
from repro.net.topology import TOPOLOGIES
from repro.sim.delay import DelayParameters
from repro.sim.rounds import ROUND_MODES
from repro.utils.validation import (
    check_choice,
    check_fraction,
    check_minority,
    check_non_negative,
    check_positive,
)

__all__ = ["FairBFLConfig"]


@dataclass(frozen=True)
class FairBFLConfig:
    """All knobs of a FAIR-BFL run.

    Attributes
    ----------
    num_miners:
        Number of miners ``m``.
    num_rounds:
        Number of communication rounds.
    participation_fraction:
        The selection ratio ``λ`` (Algorithm 1 line 3).
    local:
        Local-training hyper-parameters (``E``, ``B``, ``η``).
    model_name, hidden_sizes:
        Client/global model architecture.
    contribution:
        Algorithm 2 configuration (clustering algorithm, base reward).
    strategy:
        ``"keep"`` (FAIR) or ``"discard"`` (FAIR-Discard).
    use_fair_aggregation:
        Whether Equation (1) reweights the final aggregation (True) or the
        simple average is kept (False; ablation).
    mode:
        Operating mode (full BFL by default; see
        :class:`repro.core.flexibility.OperatingMode`).
    round_mode:
        Round synchronisation discipline (see
        :mod:`repro.sim.rounds`): ``"sync"`` waits for every selected client,
        ``"semi_sync"`` closes the upload window at ``straggler_deadline``
        simulated seconds and drops later arrivals from the round,
        ``"async"`` proceeds once ``async_quorum`` of the arrivals are in and
        folds the stragglers into the next round with staleness-decayed
        weights.
    straggler_deadline:
        Upload-window deadline in simulated seconds (``semi_sync`` only).
    async_quorum:
        Fraction of selected clients whose arrival closes the window
        (``async`` only).
    staleness_decay:
        Exponent of the ``(1 + staleness) ** -decay`` weight applied to late
        updates in ``async`` mode (see
        :func:`repro.fl.aggregation.staleness_weights`).
    enable_attacks:
        Whether an :class:`~repro.attacks.scheduler.AttackScheduler` designates
        malicious clients each round (Table 2 protocol).
    attack_name / min_attackers / max_attackers:
        Attack configuration when attacks are enabled (see
        :data:`repro.attacks.ATTACKS`).
    defense:
        Robust-aggregation defense the stacked gradient matrix passes through
        before Procedure II — ``"none"``, a primitive from
        :data:`repro.fl.robust.DEFENSES`, or a ``"+"``-chained pipeline such
        as ``"norm_clip+krum"`` (see ``docs/threat_model.md``).
    defense_fraction:
        Adversary fraction the defense is sized for (Krum's selection count,
        the trimmed mean's trim width); must lie in [0, 0.5).
    verify_signatures:
        Whether gradient uploads and mined block headers are RSA-signed and
        verified (Figure 2 path).
    use_real_pow:
        When True, the winning miner actually grinds a nonce at
        ``pow_difficulty`` (functional proof of work); the round *timing*
        always comes from the stochastic delay model either way.
    pow_difficulty:
        Difficulty of the functional proof of work (kept tiny by default).
    delay_params:
        Calibration constants of the delay model.
    executor_backend:
        How Procedure I runs over the selected clients: ``"serial"``
        (default; the original per-client loop) or ``"cohort"`` (stacked
        matrix ops).  Both are bit-identical because every client draws from
        its own seeded RNG stream; see
        :meth:`repro.fl.trainer.Trainer.local_updates`.
    executor_workers:
        The process count a cohort chunk is sharded over (``None`` = the
        usable CPUs divided by the BLAS thread count); serial ignores it.
    topology:
        Committee network shape (see :data:`repro.net.topology.TOPOLOGIES`):
        ``"global"`` keeps the single committee with its constant-latency
        all-pairs exchange (bit-identical to earlier releases); ``"full"``,
        ``"ring"`` and ``"random_k"`` give every miner its own peer set
        and chain view over seeded flooding gossip (see
        :mod:`repro.net`).
    peer_k:
        Seeded peers drawn per node under ``topology="random_k"``.
    partition:
        Timed network splits, e.g. ``"2-4:0|1"`` — see
        :func:`repro.net.schedule.parse_partition` for the grammar.  Requires
        a non-``global`` topology.
    churn:
        Node arrival/departure trace, e.g. ``"1:-0;3:+0"`` — see
        :func:`repro.net.schedule.parse_churn`.  Requires a non-``global``
        topology.
    seed:
        Experiment seed (controls every random draw: data split, selection,
        attacks, delays, mining winners).  Not the RSA keys: an entity's pair
        follows its ID alone (:mod:`repro.crypto.keystore`).
    """

    num_miners: int = 2
    num_rounds: int = 100
    participation_fraction: float = 0.1
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    model_name: str = "mlp"
    hidden_sizes: tuple[int, ...] = (64,)
    contribution: ContributionConfig = field(default_factory=ContributionConfig)
    strategy: str = "keep"
    use_fair_aggregation: bool = True
    mode: OperatingMode | str = OperatingMode.BFL
    round_mode: str = "sync"
    straggler_deadline: float = 6.0
    async_quorum: float = 0.5
    staleness_decay: float = 0.5
    enable_attacks: bool = False
    attack_name: str = "sign_flip"
    min_attackers: int = 1
    max_attackers: int = 3
    defense: str = "none"
    defense_fraction: float = 0.2
    verify_signatures: bool = True
    use_real_pow: bool = True
    pow_difficulty: float = 16.0
    delay_params: DelayParameters = field(default_factory=DelayParameters)
    executor_backend: str = "serial"
    executor_workers: int | None = None
    topology: str = "global"
    peer_k: int = 2
    partition: str = "none"
    churn: str = "none"
    seed: int = 0

    def __post_init__(self) -> None:
        check_executor_settings(self.executor_backend, self.executor_workers)
        check_positive("num_miners", self.num_miners)
        check_positive("num_rounds", self.num_rounds)
        check_fraction("participation_fraction", self.participation_fraction)
        check_choice("strategy", self.strategy, STRATEGIES)
        if self.pow_difficulty < 1.0:
            raise ValueError(f"pow_difficulty must be >= 1, got {self.pow_difficulty}")
        if self.min_attackers < 0 or self.max_attackers < self.min_attackers:
            raise ValueError(
                f"invalid attacker bounds ({self.min_attackers}, {self.max_attackers})"
            )
        check_choice("attack_name", self.attack_name, ATTACKS)
        check_minority("defense_fraction", self.defense_fraction)
        check_defense(self.defense, self.defense_fraction)
        check_choice("round_mode", self.round_mode, ROUND_MODES)
        check_positive("straggler_deadline", self.straggler_deadline)
        check_fraction("async_quorum", self.async_quorum)
        check_non_negative("staleness_decay", self.staleness_decay)
        # Validate the mode eagerly so misconfiguration fails at construction.
        mode = OperatingMode.parse(self.mode)
        check_choice("topology", self.topology, TOPOLOGIES)
        if self.topology == "global":
            if (self.partition or "none") != "none":
                raise ValueError(
                    "partition requires a non-'global' topology (the legacy "
                    "single-network path cannot split)"
                )
            if (self.churn or "none") != "none":
                raise ValueError(
                    "churn requires a non-'global' topology (the legacy "
                    "single-network path has no per-node liveness)"
                )
        else:
            if mode == OperatingMode.FL_ONLY:
                raise ValueError(
                    "non-'global' topologies need the blockchain procedures; "
                    "mode='fl_only' has no miners to gossip between"
                )
            if self.round_mode != "sync":
                raise ValueError(
                    "non-'global' topologies currently require round_mode='sync' "
                    f"(got {self.round_mode!r})"
                )
            if self.topology == "random_k" and not (
                1 <= self.peer_k < max(self.num_miners, 2)
            ):
                raise ValueError(
                    f"peer_k must lie in [1, num_miners) for topology='random_k', "
                    f"got peer_k={self.peer_k} with {self.num_miners} miners"
                )
            # Eagerly parse both axis strings so a malformed window or an
            # all-offline churn trace fails at construction, not mid-run.
            parse_partition(self.partition, self.num_miners)
            parse_churn(self.churn, self.num_miners)

    @property
    def operating_mode(self) -> OperatingMode:
        """The parsed operating mode."""
        return OperatingMode.parse(self.mode)
