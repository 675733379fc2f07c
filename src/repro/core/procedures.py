"""The five procedures of Algorithm 1 as composable functions.

Each procedure takes a :class:`RoundContext` (the mutable state of one
communication round) and the shared system objects it needs, performs its step,
and returns the context.  The orchestrator
(:class:`repro.core.fairbfl.FairBFLTrainer`) simply executes the procedures
listed by :func:`repro.core.flexibility.procedures_for_mode`, which is what
makes the functional-scaling claim concrete in code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockchain.miner import Miner
from repro.blockchain.transaction import (
    Transaction,
    make_global_update_transaction,
    make_gradient_transaction,
    make_reward_transaction,
)
from repro.crypto.keystore import KeyStore
from repro.fl.aggregation import simple_average
from repro.fl.client import ClientUpdate, LocalTrainingConfig
from repro.incentive.clustering import DBSCAN, KMeans
from repro.incentive.contribution import ContributionReport
from repro.incentive.contribution import (
    # Procedure IV's Algorithm 2 step takes the round's own direction buffer;
    # the repo benchmark times it under this name.
    identify_contributions_in_place as identify_contributions,
)
from repro.incentive.distance import cosine_distance_to_reference
from repro.incentive.rewards import RewardEntry
from repro.incentive.strategies import Strategy, StrategyOutcome
from repro.utils.vectors import (
    compact_rows_in_place,
    finite_rows,
    finite_rows_of_norms,
    row_norms,
)

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.robust import DefensePipeline
    from repro.sim.rounds import RoundTiming

__all__ = [
    "RoundContext",
    "procedure_local_update",
    "procedure_upload",
    "procedure_exchange",
    "procedure_global_update",
    "procedure_mining",
    "apply_round_mode",
]


@dataclass
class RoundContext:
    """Mutable state threaded through one communication round."""

    round_index: int
    global_parameters: np.ndarray
    selected_clients: list[int] = field(default_factory=list)
    updates: list[ClientUpdate] = field(default_factory=list)
    attacker_ids: list[int] = field(default_factory=list)
    transactions: list[Transaction] = field(default_factory=list)
    client_to_miner: dict[int, str] = field(default_factory=dict)
    gradient_matrix: np.ndarray | None = None
    gradient_client_ids: list[int] = field(default_factory=list)
    new_global_parameters: np.ndarray | None = None
    contribution_report: ContributionReport | None = None
    strategy_outcome: StrategyOutcome | None = None
    reward_list: list[RewardEntry] = field(default_factory=list)
    winning_miner: str | None = None
    rejected_uploads: int = 0
    straggler_ids: list[int] = field(default_factory=list)
    stale_applied: int = 0
    stale_rejected: int = 0
    defense_rejected_ids: list[int] = field(default_factory=list)
    defense_clipped: int = 0


# -- Procedure I ------------------------------------------------------------
def procedure_local_update(
    ctx: RoundContext,
    local_updates: Callable[[list[int], np.ndarray, LocalTrainingConfig], list[ClientUpdate]],
    local_config: LocalTrainingConfig,
) -> RoundContext:
    """Every selected client trains locally starting from the latest global parameters.

    ``local_updates`` is the trainer's :meth:`~repro.fl.trainer.Trainer.local_updates`,
    which runs the per-client work on the configured backend.  Updates are
    always returned in selection order and every stochastic draw comes from
    the owning client's private RNG stream, so the backend cannot change the
    numbers.
    """
    ctx.updates = local_updates(ctx.selected_clients, ctx.global_parameters, local_config)
    return ctx


def apply_round_mode(
    ctx: RoundContext, timing: "RoundTiming", round_mode: str
) -> list[ClientUpdate]:
    """Partition the round's updates by their simulated upload arrival.

    Under ``sync`` every update is on time and the list returned is empty.
    Under ``semi_sync``/``async`` the updates of clients that missed the
    upload window (per ``timing.on_time_ids``) are removed from
    ``ctx.updates`` — they never reach a miner this round — and returned to
    the caller, which drops them (semi-sync stragglers, recorded in
    ``ctx.straggler_ids``) or buffers them for staleness-weighted aggregation
    in a later round (async).
    """
    if round_mode == "sync" or not ctx.updates:
        return []
    on_time = set(timing.on_time_ids)
    late = [u for u in ctx.updates if u.client_id not in on_time]
    if late:
        ctx.updates = [u for u in ctx.updates if u.client_id in on_time]
        ctx.straggler_ids = [u.client_id for u in late]
    return late


# -- Procedure II ------------------------------------------------------------
def procedure_upload(
    ctx: RoundContext,
    miners: list[Miner],
    keystore: KeyStore | None,
    rng: np.random.Generator,
) -> RoundContext:
    """Each client signs its update and uploads it to a uniformly random miner.

    The miners start the round with empty gradient sets: the orchestrator
    clears them (:meth:`~repro.blockchain.miner.Miner.reset_round`) when the
    previous round ends.  Each update hands its vector to its transaction
    (``update.parameters`` becomes ``None``), so the upload is the vector's
    one holder until Procedure III stacks it.  An update that carries its
    digest (hashed where a sharded round trained it) is not hashed again.
    """
    ctx.rejected_uploads = 0
    for update in ctx.updates:
        tx = make_gradient_transaction(
            f"client-{update.client_id}",
            ctx.round_index,
            update.parameters,
            keystore=keystore,
            client_index=update.client_id,
            digest=update.digest,
        )
        update.parameters = None
        ctx.transactions.append(tx)
        miner_index = int(rng.integers(0, len(miners)))
        miner = miners[miner_index]
        ctx.client_to_miner[update.client_id] = miner.miner_id
        accepted = miner.receive_upload(tx)
        if not accepted:
            ctx.rejected_uploads += 1
    return ctx


# -- Procedure III -----------------------------------------------------------
def procedure_exchange(ctx: RoundContext, miners: list[Miner]) -> RoundContext:
    """Miners broadcast and merge gradient sets until all hold the same set.

    The stacked matrix becomes the round's one copy of the uploads: every
    stacked transaction releases its ``payload`` (its digest, signature and
    ``client_index`` stay), so Procedure IV, which consumes the matrix in
    place, runs beside no second copy.  A set stacked twice raises.
    """
    if len(miners) > 1:
        # One all-to-all pass is sufficient in the synchronous model: every
        # miner merges every other miner's set.
        snapshots = {m.miner_id: dict(m.gradient_set) for m in miners}
        for miner in miners:
            for other_id, other_set in snapshots.items():
                if other_id != miner.miner_id:
                    miner.merge_gradient_set(other_set)
    reference = miners[0]
    senders, matrix = reference.gradient_vectors()
    # Rows follow the one sender-sorted pass; each row's client id is its
    # sender's ``client_index``.
    index_of = {}
    for tx in reference.gradient_set.values():
        index_of[tx.sender] = int(tx.metadata.get("client_index", -1))
        tx.payload = None
    ctx.gradient_client_ids = [index_of[sender] for sender in senders]
    ctx.gradient_matrix = matrix
    return ctx


# -- Procedure IV ------------------------------------------------------------
def _keep_global(ctx: RoundContext) -> RoundContext:
    """No gradients arrived, or none survived: the global model is unchanged."""
    ctx.new_global_parameters = np.asarray(ctx.global_parameters, dtype=np.float64).copy()
    return ctx


def procedure_global_update(
    ctx: RoundContext,
    *,
    clusterer: DBSCAN | KMeans | None,
    base_reward: float,
    strategy: Strategy | None,
    use_fair_aggregation: bool = True,
    run_incentive: bool = True,
    defense: "DefensePipeline | None" = None,
) -> RoundContext:
    """Aggregate the gradient set, identify contributions, apply the strategy.

    Mirrors Algorithm 1 lines 23-27: first the simple average (line 24), then
    Algorithm 2 (line 26), then fair aggregation / the strategy (line 27).
    ``clusterer`` and ``base_reward`` are Algorithm 2's; the trainer builds
    them from its scenario each round.

    The round's stacked matrix ``ctx.gradient_matrix`` is owned by the round
    and consumed in place; afterwards it holds the surviving rows.  First a
    row with any NaN or ±Inf entry leaves the round (an upload that would
    poison every aggregate below).  When a ``defense`` is configured the
    rows then pass through the robust-aggregation pipeline (clip → filter →
    aggregate) in direction space: rows the defense rejects leave the round
    entirely (no contribution, no reward), clipped rows replace their
    originals, and the robust aggregate stands in for the line-24 simple
    average as Algorithm 2's reference.  Both kinds of rejection are recorded
    in ``ctx.defense_rejected_ids``.  Filtering defenses then compose with
    Equation (1) over the survivors; aggregate-replacing defenses (median,
    trimmed mean) fix the global update themselves while Procedure II keeps
    its detection/reward side effects.
    """
    matrix = ctx.gradient_matrix
    if matrix is None or matrix.shape[0] == 0:
        return _keep_global(ctx)
    previous = np.asarray(ctx.global_parameters, dtype=np.float64)
    # Survivors move up to the leading rows, so the round keeps one copy of
    # its gradients; ``rows`` is each survivor's input row.  Without a
    # defense the matrix reaches Equation (1)'s θ unchanged, so its row norms
    # are computed once: they screen the rows and then score them.
    scored = run_incentive and clusterer is not None and strategy is not None
    norms = None
    if defense is None and scored:
        norms = row_norms(matrix)
        rows = np.flatnonzero(finite_rows_of_norms(matrix, norms))
        norms = norms[rows]
    else:
        rows = np.flatnonzero(finite_rows(matrix))
    matrix = compact_rows_in_place(matrix, rows)
    if defense is not None and rows.size:
        np.subtract(matrix, previous, out=matrix)
        outcome = defense.apply(matrix)
        rows = rows[list(outcome.kept_indices)]
        ctx.defense_clipped = outcome.clipped
        matrix = outcome.deltas
        matrix += previous
        base_global = previous + outcome.aggregate
    if rows.size < len(ctx.gradient_client_ids):
        # Downstream consumers (rewards, detection accounting, async
        # bookkeeping) must see the post-screen, post-defense gradient set.
        kept = set(rows.tolist())
        ctx.defense_rejected_ids = [
            int(cid) for i, cid in enumerate(ctx.gradient_client_ids) if i not in kept
        ]
        ctx.gradient_client_ids = [int(ctx.gradient_client_ids[i]) for i in rows]
    ctx.gradient_matrix = matrix
    if not rows.size:
        return _keep_global(ctx)
    client_ids = ctx.gradient_client_ids
    if defense is None:
        base_global = simple_average(matrix)

    if not scored:
        ctx.new_global_parameters = base_global
        return ctx

    # Contribution identification works on the round's *update directions*
    # w^i_{r+1} - w_r (the paper calls the uploaded quantities "gradients"):
    # the shared starting point w_r would otherwise dominate the cosine
    # geometry and hide the per-client differences Algorithm 2 relies on.
    # They and the global direction are written once into the round's one
    # direction buffer W ∪ {w_{r+1}}, which Algorithm 2 reads θ from and then
    # clusters in place; it is dropped before Equation (1) runs.
    directions = np.empty((matrix.shape[0] + 1, matrix.shape[1]))
    np.subtract(matrix, previous[None, :], out=directions[:-1])
    np.subtract(base_global, previous, out=directions[-1])
    report = identify_contributions(directions, client_ids, clusterer, base_reward)
    del directions
    # Equation (1) weights use θ computed on the uploaded vectors themselves
    # (the literal W^k_{r+1} of Algorithm 2); those distances are small and
    # nearly uniform, which reproduces the paper's observation that FAIR-BFL's
    # accuracy tracks FedAvg.  The direction-space θ above drive detection,
    # discarding, and rewards, where discrimination between clients is the point.
    outcome = strategy.apply(
        matrix,
        client_ids,
        report,
        cosine_distance_to_reference(matrix, base_global, norms),
        use_fair_aggregation=use_fair_aggregation,
    )
    ctx.contribution_report = report
    ctx.strategy_outcome = outcome
    ctx.reward_list = report.reward_list
    ctx.new_global_parameters = outcome.global_update
    if defense is not None and defense.replaces_aggregation:
        # Median / trimmed mean ARE the aggregation rule: Procedure II ran for
        # its detection, reward, and discard side effects, but the round's
        # global update is the robust aggregate itself.
        ctx.new_global_parameters = base_global
    return ctx


# -- Procedure V -------------------------------------------------------------
def procedure_mining(
    ctx: RoundContext,
    miners: list[Miner],
    keystore: KeyStore | None,
    ranking: Sequence[str],
    *,
    use_real_pow: bool = True,
    pow_difficulty: float = 16.0,
    timestamp: float = 0.0,
) -> RoundContext:
    """Commit the round's block on every replica of ``miners``.

    ``ranking`` is the round's one mining race as miner ids in solve order
    (:attr:`~repro.sim.rounds.RoundTiming.ranking`); its first member of
    ``miners`` wins.  The block carries exactly the global update and the
    reward list (Assumption 2), so one block finalises the round on all
    replicas and no fork can arise.  With a ``keystore`` the winner signs the
    mined header once, and each keyed replica checks that signature as it
    appends.
    """
    if ctx.new_global_parameters is None:
        raise RuntimeError("procedure_mining called before procedure_global_update")
    members = {m.miner_id: m for m in miners}
    winner_id = next((mid for mid in ranking if mid in members), None)
    if winner_id is None:
        raise ValueError("the mining race ranks none of the settling miners")
    winner = members[winner_id]
    ctx.winning_miner = winner_id

    block_txs: list[Transaction] = [
        make_global_update_transaction(winner_id, ctx.round_index, ctx.new_global_parameters)
    ]
    for entry in ctx.reward_list:
        block_txs.append(
            make_reward_transaction(
                winner_id, ctx.round_index, f"client-{entry.client_id}", entry.reward
            )
        )
    block = winner.build_block(
        ctx.round_index, block_txs, timestamp=timestamp,
        difficulty=pow_difficulty if use_real_pow else 1.0,
    )
    if use_real_pow:
        winner.mine(block, difficulty=pow_difficulty)
    if keystore is not None:
        # One signature over the finished header; it commits to the body
        # through the Merkle root, so the transactions carry none of their own.
        block.sign(keystore)
    for miner in miners:
        miner.accept_block(block)
    return ctx
