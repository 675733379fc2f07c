"""The vanilla-blockchain baseline.

"Blockchain" in the paper's comparisons (Figs. 4a, 6a, 6b, 7a) is the
un-redesigned ledger: every worker's update becomes an on-chain transaction,
blocks have a bounded size so transactions queue across blocks, every mined
block risks a fork whose merge cost grows with the miner count, and the round
only completes once all of the round's transactions are recorded.

The paper reads this baseline for its *delay* alone, so the simulator prices
the ledger instead of building one: each round hands the worker count to
:meth:`~repro.sim.rounds.EventRoundSimulator.vanilla_round`, which queues that
many transactions into bounded blocks on the event kernel, and the chain's
height is a counter grown by the blocks the round mined.  The baseline's cost
lives in the timing model, not in ledger bytes.

The simulator is registered as the ``blockchain`` system
(:mod:`repro.systems.builtin`) with ``needs_dataset=False``: it trains no
model, so the experiment engine never builds a federated dataset for it.
"""

from __future__ import annotations

from repro.fl.history import RoundRecord
from repro.fl.trainer import Trainer
from repro.sim.delay import DelayParameters
from repro.sim.rounds import EventRoundSimulator
from repro.utils.rng import new_rng

__all__ = ["VanillaBlockchainSimulator"]


class VanillaBlockchainSimulator(Trainer):
    """Runs the vanilla-blockchain baseline and records per-round delays.

    Reads the spec's ``num_clients`` (the transaction-producing workers, the
    paper's n), ``miners`` (m), ``num_rounds`` and ``seed``; one round means
    every worker submits one transaction and the chain mines blocks until
    none is pending.  ``delay_params`` calibrates the timing model.
    """

    label = "blockchain"

    def __init__(self, spec, *, delay_params: DelayParameters = DelayParameters()) -> None:
        super().__init__(spec)
        self.round_sim = EventRoundSimulator(delay_params, new_rng(spec.seed, "vb-delay"))
        #: Ledger height, counting the genesis block.
        self.chain_height = 1

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one round on the event kernel and grow the chain by its blocks."""
        timing = self.round_sim.vanilla_round(
            transactions=self.spec.num_clients, num_miners=self.spec.miners
        )
        self.chain_height += timing.blocks_mined
        return self._emit(
            round_index,
            timing.total,
            0.0,
            participants=list(range(self.spec.num_clients)),
            extras={
                "delay_breakdown": timing.breakdown.as_dict(),
                "blocks_mined": timing.blocks_mined,
                "fork_count": timing.fork_count,
                "sim_events": timing.events_processed,
                "chain_height": self.chain_height,
            },
        )
