"""Stochastic delay models (Section 4.6 of the paper).

The overall FAIR-BFL round delay is ``T(n, m) = T_local + T_up + T_ex + T_gl +
T_bl``.  Each component is modelled with a simple parametric distribution whose
mean matches the structural dependence described in the paper:

* ``T_local`` — local SGD time; proportional to ``E · ceil(|D_i| / B)``
  batches, executed in parallel on all clients, so the round pays the slowest
  client (max over per-client draws).
* ``T_up`` — gradient upload; clients are at the network edge with noisy
  channels, so this is the dominant communication term.  Uploads are parallel,
  the round pays the slowest one.
* ``T_ex`` — miner gradient-set exchange; miners are few and well connected,
  so this term is small and grows mildly with ``m``.
* ``T_gl`` — global update + clustering (Algorithm 2); grows linearly with the
  number of gradients clustered.
* ``T_bl`` — proof-of-work mining and consensus; the winner's solve time is
  exponentially distributed around a difficulty-controlled block interval, plus
  a broadcast cost growing with ``m``.  For the *vanilla* blockchain baseline
  the round additionally pays one block interval per extra block required to
  drain the per-gradient transaction queue and a fork-merge penalty whose
  frequency grows with the miner count.

The default parameter values (see :class:`DelayParameters`) are calibrated so
the headline numbers land in the paper's reported ranges (FedAvg ≈ 5–7 s,
FAIR-BFL ≈ 9–11 s, vanilla blockchain ≈ 14–16 s per round for n=100, m=2);
the *shape* conclusions are insensitive to the exact constants.

Since the discrete-event refactor, the round *compositions* that anybody
reads event by event run on :class:`~repro.sim.rounds.EventRoundSimulator`
directly — FAIR-BFL acts on the per-client arrivals and pins the event trace
in its history, the vanilla chain counts its queued transactions into blocks
at solve events (it builds none).  :class:`DelayModel` keeps the two samplers read outside the kernel (local
training, mining) and one composition, ``fl_round``: the FedAvg/FedProx
breakdown depends only on two maxima and a count, so it is priced in closed
form *in the kernel's own floating-point order*.  ``tests/test_delay_parity.py``
holds it bit for bit to one kernel round, and the kernel statistically to the
original Section 4.6 compositions (both references: ``tests/delay_oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockchain.consensus import ForkModel
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "DelayParameters",
    "RoundDelayBreakdown",
    "DelayModel",
]


@dataclass(frozen=True)
class DelayParameters:
    """Calibration constants of the delay model (all times in seconds)."""

    #: Compute time for one mini-batch gradient step on a client device.
    compute_time_per_batch: float = 0.05
    #: Log-normal sigma of per-client compute speed variation (stragglers).
    compute_jitter: float = 0.25
    #: Mean one-way upload latency for one client's gradient.
    upload_mean: float = 1.6
    #: Log-normal sigma of upload latency variation (edge-network noise).
    upload_jitter: float = 0.45
    #: Receiver-side handling cost per uploaded gradient (signature check,
    #: deserialisation); makes the upload term mildly sensitive to how many
    #: clients actually participate, which is what the discard strategy saves.
    upload_processing_per_client: float = 0.12
    #: Fixed cost of the miner gradient-set exchange.
    exchange_base: float = 0.08
    #: Additional exchange cost per miner.
    exchange_per_miner: float = 0.04
    #: Fixed cost of computing the global update.
    aggregation_base: float = 0.05
    #: Clustering cost per gradient vector (Algorithm 2, DBSCAN is O(k log k)
    #: at this scale; a linear model is accurate for k <= a few hundred).
    clustering_per_gradient: float = 0.012
    #: Mean proof-of-work winner solve time (difficulty-controlled interval).
    block_interval: float = 2.2
    #: Block broadcast/verification cost per miner.
    block_broadcast_per_miner: float = 0.06
    #: Central-server aggregation time for the FL baselines.
    server_aggregation_time: float = 0.08
    #: Per-transaction handling cost in the vanilla blockchain (validation,
    #: mempool insertion, per-transaction broadcast).
    tx_processing_time: float = 0.1
    #: Number of gradient transactions that fit in one vanilla-BFL block.
    transactions_per_block: int = 100
    #: Fork behaviour of the vanilla PoW chain (calibrated so the fork-merge
    #: cost produces the sharp delay growth with miner count seen in Fig. 6b).
    fork_model: ForkModel = field(
        default_factory=lambda: ForkModel(base_fork_probability=0.08, merge_cost=12.0)
    )

    def __post_init__(self) -> None:
        check_positive("compute_time_per_batch", self.compute_time_per_batch)
        check_non_negative("compute_jitter", self.compute_jitter)
        check_positive("upload_mean", self.upload_mean)
        check_non_negative("upload_jitter", self.upload_jitter)
        check_non_negative("upload_processing_per_client", self.upload_processing_per_client)
        check_non_negative("exchange_base", self.exchange_base)
        check_non_negative("exchange_per_miner", self.exchange_per_miner)
        check_non_negative("aggregation_base", self.aggregation_base)
        check_non_negative("clustering_per_gradient", self.clustering_per_gradient)
        check_positive("block_interval", self.block_interval)
        check_non_negative("block_broadcast_per_miner", self.block_broadcast_per_miner)
        check_non_negative("server_aggregation_time", self.server_aggregation_time)
        check_non_negative("tx_processing_time", self.tx_processing_time)
        if self.transactions_per_block <= 0:
            raise ValueError(
                f"transactions_per_block must be positive, got {self.transactions_per_block}"
            )


@dataclass(frozen=True)
class RoundDelayBreakdown:
    """The five delay components of one round and their total."""

    t_local: float = 0.0
    t_up: float = 0.0
    t_ex: float = 0.0
    t_gl: float = 0.0
    t_bl: float = 0.0

    @property
    def total(self) -> float:
        """T(n, m) = T_local + T_up + T_ex + T_gl + T_bl."""
        return self.t_local + self.t_up + self.t_ex + self.t_gl + self.t_bl

    def as_dict(self) -> dict[str, float]:
        """Components plus total as a plain dictionary (for round extras)."""
        return {
            "t_local": self.t_local,
            "t_up": self.t_up,
            "t_ex": self.t_ex,
            "t_gl": self.t_gl,
            "t_bl": self.t_bl,
            "total": self.total,
        }


class DelayModel:
    """Samples Section 4.6 delay components and prices FL-baseline rounds.

    The component samplers below are calibrated primitives of Section 4.6;
    ``fl_round`` computes what the discrete-event kernel
    (:class:`~repro.sim.rounds.EventRoundSimulator`) would report for a
    FedAvg/FedProx round, bit for bit, without running it (see the module
    docstring).  FAIR-BFL and vanilla-blockchain rounds run on the kernel
    itself.

    Parameters
    ----------
    params:
        Calibration constants.
    rng:
        Generator for all stochastic draws.
    """

    def __init__(self, params: DelayParameters, rng: np.random.Generator) -> None:
        self.params = params
        self.rng = rng

    # -- individual components -------------------------------------------------
    def local_training_delay(
        self, num_participants: int, batches_per_epoch: float, epochs: int
    ) -> float:
        """T_local: slowest participant's E · ceil(D_i/B) batch computations."""
        if num_participants <= 0:
            return 0.0
        mean = self.params.compute_time_per_batch * float(batches_per_epoch) * int(epochs)
        draws = mean * self.rng.lognormal(0.0, self.params.compute_jitter, size=num_participants)
        return float(draws.max())

    def mining_delay(self, num_miners: int) -> float:
        """T_bl: winner solve time plus block broadcast/verification.

        The proof-of-work difficulty is assumed to be retargeted to the network
        hash power (as in deployed chains), so the *winner's* expected solve
        time equals the configured block interval regardless of ``m``; only the
        broadcast term grows with the miner count.
        """
        solve = float(self.rng.exponential(self.params.block_interval))
        broadcast = self.params.block_broadcast_per_miner * max(0, num_miners - 1)
        return solve + broadcast

    # -- round composition ----------------------------------------------------
    def fl_round(
        self,
        *,
        num_participants: int,
        batches_per_epoch: float,
        epochs: int,
    ) -> RoundDelayBreakdown:
        """One FedAvg/FedProx round: local training + upload + server aggregation.

        The closed form of one synchronous kernel round, in the kernel's
        arithmetic.  Every client waits for the slowest one (``cmax``) and
        then uploads, and ``fl(cmax + u)`` is monotone in ``u``, so the last
        arrival is ``fl(cmax + umax)`` whatever order ties fire in; the
        receiver then verifies the ``n`` uploads as ``n`` sequential events
        and the server aggregates.  Nothing else reaches the breakdown, so no
        actor per client (five events each, which also capped a round at
        200 000 clients) is needed to get the same bits.
        """
        params = self.params
        # The kernel's tie-break seed: drawn and discarded so the stream stays
        # where the simulated round leaves it.
        self.rng.integers(0, 2**63)
        t_local = self.local_training_delay(num_participants, batches_per_epoch, epochs)
        verify_end = 0.0
        if num_participants > 0:
            upload = params.upload_mean * self.rng.lognormal(
                0.0, params.upload_jitter, size=num_participants
            )
            # n back-to-back verify events: n sequential additions, not p * n.
            clock = np.full(num_participants + 1, float(params.upload_processing_per_client))
            clock[0] = t_local + float(upload.max())
            verify_end = float(np.add.accumulate(clock)[-1])
        global_end = verify_end + params.server_aggregation_time
        return RoundDelayBreakdown(
            t_local=t_local,
            t_up=max(0.0, verify_end - t_local),
            t_gl=max(0.0, global_end - verify_end),
        )
