"""The vanilla-blockchain baseline.

"Blockchain" in the paper's comparisons (Figs. 4a, 6a, 6b, 7a) is the
un-redesigned ledger: every worker's update becomes an on-chain transaction,
blocks have a bounded size so transactions queue across blocks, every mined
block risks a fork whose merge cost grows with the miner count, and the round
only completes once all of the round's transactions are recorded.

The simulator below actually exercises the ledger machinery *on the event
kernel*: transactions are built and queued in a
:class:`~repro.blockchain.mempool.Mempool`, and every block is created at a
proof-of-work solve **event** — the winning miner's solve fires first, drains
one :meth:`~repro.blockchain.mempool.Mempool.take_block` batch, builds the
block, and the replicas append it; fork merges are scheduled reorganisation
events.  Chain state and round timing therefore come from one simulation
(:meth:`~repro.sim.rounds.EventRoundSimulator.vanilla_round`) and cannot
disagree.

The simulator is registered as the ``blockchain`` system
(:mod:`repro.systems.builtin`) with ``needs_dataset=False``: its workload is
gradient-*sized* transactions, not gradients, so the experiment engine never
builds a federated dataset for it.
"""

from __future__ import annotations

from repro.blockchain.block import Block
from repro.blockchain.mempool import Mempool
from repro.blockchain.miner import Miner, replicated_committee
from repro.blockchain.transaction import make_gradient_transaction
from repro.fl.history import RoundRecord
from repro.fl.trainer import Trainer
from repro.sim.delay import DelayParameters
from repro.sim.rounds import EventRoundSimulator
from repro.utils.rng import new_rng

__all__ = ["VanillaBlockchainSimulator"]


#: Float64 elements per worker transaction: a gradient-sized payload (only
#: its size matters, for queueing).
PAYLOAD_ELEMENTS = 32


class VanillaBlockchainSimulator(Trainer):
    """Runs the vanilla-blockchain baseline and records per-round delays.

    Reads the spec's ``num_clients`` (the transaction-producing workers, the
    paper's n), ``miners`` (m), ``num_rounds`` and ``seed``; one round means
    every worker submits one transaction and the chain drains the resulting
    queue.  ``delay_params`` calibrates the timing model.
    """

    label = "blockchain"

    def __init__(self, spec, *, delay_params: DelayParameters = DelayParameters()) -> None:
        super().__init__(spec)
        self.rng = new_rng(spec.seed, "vanilla-blockchain")
        self.round_sim = EventRoundSimulator(delay_params, new_rng(spec.seed, "vb-delay"))
        self.worker_ids = [f"worker-{i}" for i in range(spec.num_clients)]

        self.miners: list[Miner] = replicated_committee(
            [f"miner-{k}" for k in range(spec.miners)],
            Block.genesis(),
            enforce_pow=False,
            keystore=None,
        )
        # The mempool size is expressed in bytes; convert the configured
        # transactions-per-block capacity using the payload size.
        tx_bytes = PAYLOAD_ELEMENTS * 8
        self.mempool = Mempool(block_size_bytes=tx_bytes * delay_params.transactions_per_block)

    # ------------------------------------------------------------------
    def _make_round_transactions(self, round_index: int) -> list:
        """Every worker submits one gradient-sized transaction."""
        txs = []
        for i, wid in enumerate(self.worker_ids):
            payload = self.rng.normal(size=PAYLOAD_ELEMENTS)
            txs.append(
                make_gradient_transaction(
                    wid,
                    round_index,
                    payload,
                    client_index=i,
                )
            )
        return txs

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one round on the event kernel: every block is mined at a solve event."""
        self.mempool.submit_many(self._make_round_transactions(round_index))

        def build_and_commit(batch: list, winner_index: int) -> None:
            """Solve-event handler: the winning miner packs the batch into a block."""
            winner = self.miners[winner_index]
            block = winner.build_block(
                round_index,
                batch,
                timestamp=self.clock.now,
                difficulty=1.0,
            )
            for miner in self.miners:
                miner.accept_block(block)

        timing = self.round_sim.vanilla_round(
            mempool=self.mempool,
            num_miners=self.spec.miners,
            on_block=build_and_commit,
        )
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
                "chain_height": self.miners[0].chain.height,
            },
        )

    @property
    def chain_height(self) -> int:
        """Current ledger height on the first miner's replica."""
        return self.miners[0].chain.height
