"""A committed round leaves nothing of its uploads behind.

One block settles a FAIR-BFL round, so once it commits the round's uploads
are spent: every miner drops its gradient set, the one pool of pending
uploads (gossip nodes keep none of their own).  Procedure III consumes the
uploads it stacks (each transaction releases its vector, which Procedure II
took from the client's update), and Procedure IV consumes the round's stacked
matrix in place (the defense clips and compacts it), so a whole round — local
training through the committed block — holds one copy of the round's
gradients beside Algorithm 2's direction buffer.

The run is ``committee_adversarial`` in miniature: ``fairbfl-discard`` over a
ring of 4 miners with mixed attackers and ``norm_clip+multi_krum``.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.fairbfl import FairBFLTrainer
from repro.incentive.strategies import DiscardStrategy
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec

pytestmark = pytest.mark.net

MiB = 2**20
NUM_CLIENTS = 48


@pytest.fixture()
def trainer():
    spec = ScenarioSpec(
        system="fairbfl-discard", num_clients=NUM_CLIENTS, num_samples=20 * NUM_CLIENTS,
        participation=1.0, scheme="shard", model_name="logreg", epochs=1, attacks=True,
        attack_name="mixed", min_attackers=2, max_attackers=4,
        defense="norm_clip+multi_krum", miners=4, topology="ring", num_rounds=3, seed=0,
    )
    trainer = FairBFLTrainer(ExperimentEngine().dataset_for(spec), spec)
    assert isinstance(trainer.strategy, DiscardStrategy)
    yield trainer
    trainer.close()


def _held_uploads(trainer, up_to_round):
    """Every upload from rounds <= ``up_to_round`` still held by a miner."""
    return [
        (miner.miner_id, tx.round_index)
        for miner in trainer.miners
        for tx in miner.gradient_set.values()
        if tx.round_index <= up_to_round
    ]


def test_committed_rounds_leave_no_uploads_behind(trainer):
    for round_index in range(3):
        record = trainer.run_round(round_index)
        assert trainer.chain.last_block.round_index == round_index
        assert record.extras["net"]["lost_uploads"] == 0
        assert _held_uploads(trainer, round_index) == []


def test_whole_round_peak_is_bounded_by_the_gradient_matrix(trainer):
    trainer.run_round(0)
    matrix_bytes = NUM_CLIENTS * trainer.current_global_parameters().nbytes
    # Round 1 is the first that could still hold the previous round's uploads.
    tracemalloc.start()
    try:
        record = trainer.run_round(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.extras["defense_rejected"]  # the defense did reject attackers
    ratio = peak / matrix_bytes
    print(
        f"committee round (48 clients, 4 miners, norm_clip+multi_krum): peak "
        f"{peak / MiB:.1f} MiB for a {matrix_bytes / MiB:.1f} MiB (k, d) matrix ({ratio:.2f}x)"
    )
    # Reads 2.06x: the matrix and the direction buffer.  Keeping every upload
    # in its transaction and its client update as well read 3.06x; keeping
    # the previous round's uploads plus the defense's per-step copies, 4.85x.
    assert ratio <= 2.4
