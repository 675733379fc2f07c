"""Reference delay models the sim tests hold the shipped ones to (Section 4.6).

None of this runs in a simulation; each piece is an oracle:

* :class:`AnalyticDelayModel` — the original closed-form compositions of
  Section 4.6, the five components summed independently.
  ``tests/test_delay_parity.py`` asserts the event kernel's delay means land
  inside the ranges it defines.  It adds the per-component samplers only
  these compositions read (``upload_delay``, ``exchange_delay``,
  ``aggregation_delay``, ``fork_delay``) to the ones
  :class:`~repro.sim.delay.DelayModel` ships.
* :func:`kernel_fl_round` — one FedAvg/FedProx round simulated on the event
  kernel, the bit reference of the closed-form
  :meth:`DelayModel.fl_round <repro.sim.delay.DelayModel.fl_round>`.
* :func:`sample_fork_delay` — one vanilla-chain mining competition's forks
  and merge cost, as the kernel schedules them.
* :func:`kernel_vanilla_round` — one vanilla-chain round on the kernel over
  ``n`` pending transactions.

Import them as ``from delay_oracles import ...`` (``tests/`` is on the import
path while the suite runs).
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from repro.blockchain.consensus import ForkModel
from repro.sim.delay import DelayModel, RoundDelayBreakdown
from repro.sim.rounds import EventRoundSimulator, RoundTiming


def sample_fork_delay(
    fork_model: ForkModel, rng: np.random.Generator, num_miners: int
) -> tuple[int, float]:
    """Sample ``(fork_count, extra_delay_seconds)`` for one mining competition.

    Every runner-up independently collides with the winner with probability
    ``base_fork_probability``; each collision costs one serialised merge from
    :meth:`~repro.blockchain.consensus.ForkModel.merge_schedule`.
    """
    collisions = fork_model.sample_collisions(rng, num_miners)
    return collisions, float(sum(fork_model.merge_schedule(collisions)))


def kernel_fl_round(
    simulator: EventRoundSimulator,
    *,
    client_ids: Sequence[int] | int,
    batches_per_epoch: float | Mapping[int, float],
    epochs: int,
) -> RoundTiming:
    """One FedAvg/FedProx round on the kernel: local training, upload, server aggregation.

    The FAIR-BFL pipeline without exchange or mining, on a copy of
    ``simulator`` (sharing its generator) whose Procedure IV costs exactly
    ``server_aggregation_time``: a zero per-gradient clustering term adds 0.0.
    """
    server = copy.copy(simulator)
    server.params = replace(
        simulator.params,
        aggregation_base=simulator.params.server_aggregation_time,
        clustering_per_gradient=0.0,
    )
    return server.fairbfl_round(
        client_ids=client_ids,
        num_miners=0,
        batches_per_epoch=batches_per_epoch,
        epochs=epochs,
        stages=("local", "upload", "global"),
    )


def kernel_vanilla_round(
    simulator: EventRoundSimulator, *, num_transactions: int, num_miners: int
) -> RoundTiming:
    """One vanilla-chain round on the kernel over ``num_transactions`` pending.

    Each block takes ``transactions_per_block`` of them, so the round mines
    ``ceil(n / transactions_per_block)`` blocks (at least one).
    """
    return simulator.vanilla_round(transactions=num_transactions, num_miners=num_miners)


class AnalyticDelayModel(DelayModel):
    """The original closed-form compositions of Section 4.6."""

    # -- the samplers only the closed forms read -------------------------------
    def upload_delay(self, num_participants: int) -> float:
        """T_up: slowest parallel client->miner upload plus receiver-side handling."""
        if num_participants <= 0:
            return 0.0
        draws = self.params.upload_mean * self.rng.lognormal(
            0.0, self.params.upload_jitter, size=num_participants
        )
        processing = self.params.upload_processing_per_client * num_participants
        return float(draws.max()) + processing

    def exchange_delay(self, num_miners: int) -> float:
        """T_ex: all-pairs gradient-set exchange among the miners."""
        if num_miners <= 1:
            return 0.0
        return self.params.exchange_base + self.params.exchange_per_miner * (num_miners - 1)

    def aggregation_delay(self, num_gradients: int) -> float:
        """T_gl: global update computation, including Algorithm 2 clustering."""
        params = self.params
        return params.aggregation_base + params.clustering_per_gradient * max(0, int(num_gradients))

    def fork_delay(self, num_miners: int) -> tuple[int, float]:
        """Sample (fork_count, merge_delay) for one vanilla-chain mining competition."""
        return sample_fork_delay(self.params.fork_model, self.rng, num_miners)

    # -- the compositions ------------------------------------------------------
    def fairbfl_round(
        self,
        *,
        num_participants: int,
        num_miners: int,
        batches_per_epoch: float,
        epochs: int,
    ) -> RoundDelayBreakdown:
        """Closed form: the five components summed independently."""
        return RoundDelayBreakdown(
            t_local=self.local_training_delay(num_participants, batches_per_epoch, epochs),
            t_up=self.upload_delay(num_participants),
            t_ex=self.exchange_delay(num_miners),
            t_gl=self.aggregation_delay(num_participants),
            t_bl=self.mining_delay(num_miners),
        )

    def fl_round(
        self,
        *,
        num_participants: int,
        batches_per_epoch: float,
        epochs: int,
    ) -> RoundDelayBreakdown:
        """Closed form: local training + upload + fixed server aggregation."""
        return RoundDelayBreakdown(
            t_local=self.local_training_delay(num_participants, batches_per_epoch, epochs),
            t_up=self.upload_delay(num_participants),
            t_gl=self.params.server_aggregation_time,
        )

    def vanilla_blockchain_round(
        self, *, num_transactions: int, num_miners: int
    ) -> RoundDelayBreakdown:
        """Closed form: queued blocks, per-transaction handling, fork merges."""
        if num_transactions < 0:
            raise ValueError(f"num_transactions must be >= 0, got {num_transactions}")
        blocks_required = max(
            1, int(np.ceil(num_transactions / self.params.transactions_per_block))
        )
        t_bl = 0.0
        for _ in range(blocks_required):
            t_bl += self.mining_delay(num_miners)
            _forks, merge_delay = self.fork_delay(num_miners)
            t_bl += merge_delay
        t_up = self.params.tx_processing_time * num_transactions
        return RoundDelayBreakdown(t_up=t_up, t_bl=t_bl)
