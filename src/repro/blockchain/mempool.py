"""Block-size-limited transaction queue.

Vanilla BFL records *every* local gradient on-chain; when the per-round
transaction volume exceeds the block size, transactions queue across blocks
and the round cannot complete until every gradient is recorded (paper
Section 3.1 and the queueing knee of Figure 6a).  The :class:`Mempool`
implements that mechanism: it accepts transactions, and :meth:`take_block`
pops as many as fit under the size limit in FIFO order.

In the event-driven simulation (:mod:`repro.sim.rounds`) the mempool is the
queueing actor of the chain layer: every block-solve event drains one
:meth:`take_block` batch, so a round pays one mining competition per block
:func:`pack_block_counts` packs its transactions into.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.blockchain.transaction import Transaction

__all__ = ["Mempool"]


def pack_block_counts(sizes: Iterable[int], capacity: int) -> Iterator[int]:
    """Yield how many FIFO transactions each successive block takes.

    The packing rule of :meth:`Mempool.take_block` (which materialises only
    the first count): a block closes when adding the next transaction would exceed
    ``capacity``, except that a block always takes at least one transaction —
    an oversized transaction occupies a block by itself (a real chain would
    reject it; for the simulation a too-large gradient simply misses sharing a
    block, matching the paper's discussion of large gradients).
    """
    count = 0
    used = 0
    for size in sizes:
        if count and used + size > capacity:
            yield count
            count = 0
            used = 0
        count += 1
        used += size
        if used >= capacity:
            yield count
            count = 0
            used = 0
    if count:
        yield count


class Mempool:
    """FIFO transaction pool with a per-block byte budget.

    Parameters
    ----------
    block_size_bytes:
        Maximum total ``payload_size_bytes`` a single block may carry.
    """

    def __init__(self, block_size_bytes: int) -> None:
        if block_size_bytes <= 0:
            raise ValueError(f"block_size_bytes must be positive, got {block_size_bytes}")
        self.block_size_bytes = int(block_size_bytes)
        self._queue: deque[Transaction] = deque()
        self._seen_ids: set[str] = set()

    def submit(self, tx: Transaction) -> bool:
        """Add a transaction to the pool; duplicates (same tx_id) are ignored.

        Returns ``True`` when the transaction was newly enqueued.
        """
        tx_id = tx.tx_id
        if tx_id in self._seen_ids:
            return False
        self._seen_ids.add(tx_id)
        self._queue.append(tx)
        return True

    def submit_many(self, txs: list[Transaction]) -> int:
        """Submit a batch of transactions; returns how many were newly enqueued."""
        return sum(1 for tx in txs if self.submit(tx))

    def take_block(self) -> list[Transaction]:
        """Pop the FIFO prefix of transactions that fits in one block.

        At least one transaction is always returned when the pool is non-empty
        (see :func:`pack_block_counts` for the oversized-transaction rule).
        """
        if not self._queue:
            return []
        count = next(
            pack_block_counts((tx.payload_size_bytes for tx in self._queue), self.block_size_bytes)
        )
        taken = [self._queue.popleft() for _ in range(count)]
        for tx in taken:
            self._seen_ids.discard(tx.tx_id)
        return taken

    @property
    def pending_count(self) -> int:
        """Number of queued transactions."""
        return len(self._queue)

    def __len__(self) -> int:
        return len(self._queue)
