"""The FAIR-BFL orchestrator (Algorithm 1).

One :class:`FairBFLTrainer` owns the complete system: the federated clients
and their data shards, the miners with replicated ledgers, the RSA key store,
the incentive mechanism, the optional attack scheduler, and the delay model.
Each call to :meth:`run_round` executes the procedures selected by the
configured operating mode and appends one block (Assumption 2) containing the
round's global update and reward list.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.attacks.gradient_attacks import make_attack
from repro.attacks.scheduler import AttackScheduler
from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.miner import Miner, replicated_committee
from repro.blockchain.transaction import make_global_update_transaction
from repro.core.flexibility import OperatingMode, Procedure, procedures_for_mode
from repro.core.procedures import (
    RoundContext,
    apply_round_mode,
    procedure_exchange,
    procedure_global_update,
    procedure_local_update,
    procedure_mining,
    procedure_upload,
)
from repro.fl.aggregation import merge_stale_updates
from repro.fl.client import ClientUpdate
from repro.fl.robust import make_defense
from repro.incentive.clustering import make_clusterer
from repro.incentive.distance import cosine_distance_to_reference
from repro.crypto.keystore import KeyStore
from repro.datasets.federated import FederatedDataset
from repro.fl.history import RoundRecord
from repro.fl.selection import ContributionBasedSelector, RandomSelector
from repro.fl.trainer import Trainer
from repro.incentive.strategies import make_strategy
from repro.net.substrate import GossipSubstrate
from repro.nn.parameters import (
    accuracy_of_parameters,
    get_flat_parameters,
    set_flat_parameters,
)
from repro.sim.delay import DelayParameters
from repro.sim.rounds import EventRoundSimulator, RoundTiming
from repro.utils.rng import new_rng
from repro.utils.vectors import finite_rows

__all__ = ["FairBFLTrainer"]


class FairBFLTrainer(Trainer):
    """Runs FAIR-BFL over a federated dataset.

    Parameters
    ----------
    dataset:
        The partitioned dataset (paper: non-IID MNIST split over n=100 clients).
    spec:
        The run's :class:`~repro.runner.scenario.ScenarioSpec` (read
        duck-typed; ``docs/scenarios.md`` describes every field).  A spec
        whose ``system`` is ``"fairbfl-discard"`` runs the discard strategy
        whatever its ``strategy`` field says.
    delay_params:
        Calibration constants of the delay model.
    """

    label = "fair-bfl"
    uploads_updates = True

    def __init__(
        self,
        dataset: FederatedDataset,
        spec,
        *,
        delay_params: DelayParameters = DelayParameters(),
    ) -> None:
        super().__init__(spec, dataset)
        self.mode: OperatingMode = OperatingMode.parse(spec.mode)
        seed = spec.seed

        # -- crypto / identities ------------------------------------------------
        self.keystore: KeyStore | None = KeyStore() if spec.verify_signatures else None
        self.miner_ids = [f"miner-{k}" for k in range(spec.miners)]
        if self.keystore is not None:
            for cid in range(dataset.num_clients):
                self.keystore.register(f"client-{cid}")
            for mid in self.miner_ids:
                self.keystore.register(mid)

        # -- global model / blockchain ---------------------------------------------
        self.global_model = self._model_factory()
        genesis = Block.genesis(
            initial_global_update=make_global_update_transaction(
                "genesis", -1, get_flat_parameters(self.global_model)
            )
        )
        self.miners: list[Miner] = replicated_committee(
            self.miner_ids,
            genesis,
            enforce_pow=spec.use_real_pow,
            keystore=self.keystore,
        )

        # -- network substrate -------------------------------------------------------
        # With the default "global" topology no substrate exists and every
        # round settles over the whole replicated committee; any other
        # topology gives every miner its own chain view and peer set over
        # seeded gossip, and rounds settle per component.
        self.net: GossipSubstrate | None = None
        if spec.topology != "global":
            self.net = GossipSubstrate(
                miners=self.miners,
                topology=spec.topology,
                peer_k=spec.peer_k,
                partition=spec.partition,
                churn=spec.churn,
                seed=seed,
                base_latency=delay_params.block_broadcast_per_miner,
            )

        # -- incentive / selection ---------------------------------------------------
        strategy = "discard" if spec.system == "fairbfl-discard" else spec.strategy
        self.strategy = make_strategy(strategy)
        if strategy == "discard":
            self.selector: RandomSelector = ContributionBasedSelector(spec.participation)
        else:
            self.selector = RandomSelector(spec.participation)

        # -- attacks / defenses --------------------------------------------------------
        self.attack_scheduler: AttackScheduler | None = None
        if spec.attacks:
            self.attack_scheduler = AttackScheduler(
                attack=make_attack(spec.attack_name),
                min_attackers=spec.min_attackers,
                max_attackers=spec.max_attackers,
            )
        # The robust-aggregation pipeline every gradient set (fresh and stale)
        # passes through before Procedure II; None when defense == "none".
        self.defense = make_defense(spec.defense, attacker_fraction=spec.defense_fraction)

        # -- timing / rng ----------------------------------------------------------------
        # One discrete-event simulation per round owns the timing: client
        # uploads, miner exchanges, and block solves are scheduled events, and
        # the round modes (semi_sync/async) read the arrival times to decide
        # which gradients make the round.
        self.round_sim = EventRoundSimulator(
            delay_params,
            new_rng(seed, self.label, "delay"),
            round_mode=spec.round_mode,
            straggler_deadline=spec.straggler_deadline,
            async_quorum=spec.async_quorum,
            record_trace=True,
        )
        #: Async-mode carry-over: (parameter vector, origin round) per late update.
        self._stale_buffer: list[tuple[np.ndarray, int]] = []
        self._upload_rng = new_rng(seed, self.label, "upload")
        self._attack_rng = new_rng(seed, self.label, "attack")

    # ------------------------------------------------------------------
    @property
    def chain(self) -> Blockchain:
        """The canonical ledger view.

        With the ``global`` topology every replica is identical, so the first
        miner's chain *is* the ledger.  On the gossip substrate views can
        diverge (partition, churn), so the canonical view is the fork-choice
        winner among the online nodes.
        """
        if self.net is not None:
            return self.net.best_chain()
        return self.miners[0].chain

    def current_global_parameters(self) -> np.ndarray:
        """Procedure I's read of the global parameters.

        In full-BFL and chain-only modes the parameters come from the latest
        block (Assumption 2 guarantees each block carries the round's global
        gradient).  In FL-only mode there is no ledger update, so the trainer's
        off-chain global model is the source of truth.
        """
        if self.mode is OperatingMode.FL_ONLY:
            return get_flat_parameters(self.global_model)
        params = self.chain.latest_global_update()
        if params is None:
            return get_flat_parameters(self.global_model)
        return params

    def global_test_accuracy(self) -> float:
        """Accuracy of the on-chain global model on the held-out test set."""
        return accuracy_of_parameters(
            self.global_model,
            self.current_global_parameters(),
            self.dataset.test_images,
            self.dataset.test_labels,
        )

    # ------------------------------------------------------------------
    def _apply_attacks(self, ctx: RoundContext) -> None:
        """Designate attackers for the round and forge their updates in place."""
        if self.attack_scheduler is None or not ctx.updates:
            return
        attacker_ids = self.attack_scheduler.designate(
            [u.client_id for u in ctx.updates], self._attack_rng
        )
        ctx.attacker_ids = attacker_ids
        if not attacker_ids:
            return
        attackers = set(attacker_ids)
        forged_updates = []
        for update in ctx.updates:
            if update.client_id in attackers:
                forged_updates.append(
                    self.attack_scheduler.forge(
                        update,
                        self._attack_rng,
                        global_parameters=ctx.global_parameters,
                    )
                )
            else:
                forged_updates.append(update)
        ctx.updates = forged_updates

    def _round_accuracy(self, ctx: RoundContext) -> float:
        """The participants' mean accuracy under the round's new global model."""
        if ctx.new_global_parameters is None or not ctx.selected_clients:
            return self.global_test_accuracy()
        return self.mean_accuracy(ctx.selected_clients, ctx.new_global_parameters)

    #: Procedure → simulation-stage name (Procedures I-V on the event kernel).
    _PROCEDURE_STAGES = {
        Procedure.LOCAL_UPDATE: "local",
        Procedure.UPLOAD: "upload",
        Procedure.EXCHANGE: "exchange",
        Procedure.GLOBAL_UPDATE: "global",
        Procedure.MINING: "mining",
    }

    def _round_timing(self, ctx: RoundContext, procedures: tuple[Procedure, ...]) -> RoundTiming:
        """Simulate the round on the event kernel for exactly the procedures that ran.

        Returns the full :class:`~repro.sim.rounds.RoundTiming` — the five-term
        delay breakdown plus the per-client upload arrivals that the
        semi-sync/async round modes act on.

        Semantics note: the simulation runs *before* Procedure II (its arrival
        times decide who uploads at all), so the aggregation term ``t_gl`` is
        priced over the upload-window arrivals rather than the
        post-signature-check gradient count the analytic model used.  The two
        differ only when a signed upload is rejected, which the calibrated
        scenarios never produce.
        """
        spec = self.spec
        batches = {
            cid: float(np.ceil(self.clients[cid].num_samples / spec.batch_size))
            for cid in ctx.selected_clients
        }
        return self.round_sim.fairbfl_round(
            client_ids=list(ctx.selected_clients),
            num_miners=spec.miners,
            batches_per_epoch=batches,
            epochs=spec.epochs,
            stages=frozenset(self._PROCEDURE_STAGES[p] for p in procedures),
        )

    #: Stale updates whose *direction* has cosine distance >= this bound to the
    #: round's fresh consensus direction are rejected instead of blended
    #: (distance 1 = orthogonal; sign-flipped forgeries land near 2).
    STALE_ALIGNMENT_CUTOFF = 1.0

    def _apply_stale_updates(self, ctx: RoundContext, round_index: int) -> None:
        """Async mode: fold buffered late updates into the round's global parameters.

        Every update that missed a previous round's quorum window joins this
        round's aggregate with weight ``(1 + staleness) ** -staleness_decay``
        (each on-time gradient carries unit weight; staleness is usually one
        round, more if intermediate rounds could not aggregate), then the
        caller buffers this round's own stragglers in turn.

        Late updates never pass through Procedure II's signature check or
        Algorithm 2's contribution filter — they arrive after the window those
        defenses run in — so they are screened here instead: first a row with
        a NaN or ±Inf entry is dropped, as Procedure IV drops one (it would
        turn the norm-clip median NaN and so switch clipping off for every
        row); then through the configured robust-aggregation defense (the
        same clip/filter pipeline the fresh gradient set passed; an
        aggregate-replacing defense contributes its clip/keep behaviour only,
        since stale rows must stay individual for staleness weighting); then
        by direction: a stale update is only blended if its update direction
        is positively aligned with the round's fresh consensus direction
        (cosine distance below :attr:`STALE_ALIGNMENT_CUTOFF`).  A
        sign-flipped or scaled-negative forgery that deliberately straggles
        past the quorum is rejected, and every rejection is reported in
        ``extras["stale_rejected"]``.
        """
        if not self._stale_buffer or ctx.new_global_parameters is None:
            return
        fresh_count = max(1, len(ctx.gradient_client_ids))
        previous = np.asarray(ctx.global_parameters, dtype=np.float64)
        fresh = np.asarray(ctx.new_global_parameters, dtype=np.float64)
        stale_matrix = np.stack([vec for vec, _origin in self._stale_buffer], axis=0)
        origins = np.array([origin for _vec, origin in self._stale_buffer])
        finite = finite_rows(stale_matrix)
        ctx.stale_rejected += int(np.count_nonzero(~finite))
        stale_matrix, origins = stale_matrix[finite], origins[finite]
        if self.defense is not None and finite.any():
            outcome = self.defense.apply(stale_matrix - previous[None, :])
            ctx.stale_rejected += stale_matrix.shape[0] - len(outcome.kept_indices)
            stale_matrix = outcome.deltas
            stale_matrix += previous
            origins = origins[list(outcome.kept_indices)]
        fresh_delta = fresh - previous
        if float(np.linalg.norm(fresh_delta)) > 1e-12:
            thetas = cosine_distance_to_reference(
                stale_matrix - previous[None, :], fresh_delta
            )
            keep = thetas < self.STALE_ALIGNMENT_CUTOFF
        else:
            # Degenerate round (no movement): no direction to screen against.
            keep = np.ones(stale_matrix.shape[0], dtype=bool)
        ctx.stale_rejected += int(np.count_nonzero(~keep))
        if keep.any():
            staleness = np.maximum(1.0, round_index - origins[keep]).astype(np.float64)
            ctx.new_global_parameters = merge_stale_updates(
                fresh,
                fresh_count,
                stale_matrix[keep],
                staleness,
                decay=self.spec.staleness_decay,
            )
            ctx.stale_applied = int(np.count_nonzero(keep))
        self._stale_buffer = []

    # ------------------------------------------------------------------
    def _settle(self, ctx: RoundContext, members: list[Miner], ranking: list[str]) -> None:
        """Procedures III-V over one miner set: exchange, aggregate, mine.

        ``members`` is the whole committee on the ``global`` topology and one
        reachability component on the gossip substrate, where each component
        settles on its own chain views — under a partition the sides mine
        divergent forks.  The best-ranked member in ``ranking`` signs the block.
        """
        spec = self.spec
        procedures = procedures_for_mode(self.mode)
        if Procedure.EXCHANGE in procedures:
            procedure_exchange(ctx, members)
        elif Procedure.UPLOAD in procedures:
            # FL-only mode: no miner exchange, but the (single logical server)
            # still needs the stacked gradient matrix from the first miner.
            procedure_exchange(ctx, members[:1])
        if Procedure.GLOBAL_UPDATE in procedures:
            procedure_global_update(
                ctx,
                clusterer=make_clusterer(
                    spec.clustering,
                    eps=spec.dbscan_eps,
                    min_samples=spec.dbscan_min_samples,
                    seed=spec.seed,
                ),
                base_reward=spec.base_reward,
                strategy=self.strategy,
                use_fair_aggregation=spec.use_fair_aggregation,
                run_incentive=self.mode is not OperatingMode.FL_ONLY,
                defense=self.defense,
            )
        if spec.round_mode == "async":
            # Late arrivals from earlier rounds join this aggregate with
            # staleness-decayed weights.
            self._apply_stale_updates(ctx, ctx.round_index)
        if Procedure.MINING in procedures:
            if ctx.new_global_parameters is None:
                # Chain-only mode skips Procedure IV; the block still records
                # the (unchanged) global parameters so the ledger keeps one
                # block per round, exactly as the functional-scaling analysis
                # assumes.
                ctx.new_global_parameters = np.asarray(
                    ctx.global_parameters, dtype=np.float64
                ).copy()
            procedure_mining(
                ctx,
                members,
                self.keystore,
                ranking,
                use_real_pow=spec.use_real_pow,
                pow_difficulty=spec.pow_difficulty,
                timestamp=self.clock.now,
            )
        elif ctx.new_global_parameters is not None:
            # FL-only mode: keep the global model off-chain on the trainer.
            set_flat_parameters(self.global_model, ctx.new_global_parameters)

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round under the configured operating mode."""
        spec = self.spec
        procedures = procedures_for_mode(self.mode)
        net, net_report = self.net, None
        if net is not None:
            # Heal/churn reconciliation happens *before* Procedure I reads
            # the global parameters, so a round that follows a partition
            # trains against the post-reorg canonical view.
            net_report = net.begin_round(round_index, sim_time=self.clock.now)
        ctx = RoundContext(
            round_index=round_index,
            global_parameters=self.current_global_parameters(),
        )
        ctx.selected_clients = [
            int(c) for c in self.selector.select(self.dataset.num_clients, self._selection_rng)
        ]

        if Procedure.LOCAL_UPDATE in procedures:
            procedure_local_update(ctx, self.local_updates, spec.local_config())
            self._apply_attacks(ctx)

        # The event-driven simulation runs before Procedure II: the arrival
        # times it produces decide which uploads make this round's window
        # under the semi_sync/async disciplines.
        timing = self._round_timing(ctx, procedures)
        late_updates: list[ClientUpdate] = apply_round_mode(ctx, timing, spec.round_mode)

        if Procedure.UPLOAD in procedures:
            procedure_upload(ctx, self.miners, self.keystore, self._upload_rng)
        ranking = [self.miner_ids[k] for k in timing.ranking]
        if net is None:
            self._settle(ctx, self.miners, ranking)
        else:
            lost_uploads = net.absorb_uploads(
                ctx.transactions, ctx.client_to_miner, net_report.state
            )
            # Components settle in deterministic (sorted) order, each on its
            # own copy of the round state, so the gossip floods they start
            # stay reproducible.
            miners_by_id = {m.miner_id: m for m in self.miners}
            settled: list[tuple[list[Miner], RoundContext]] = []
            broadcast_latency = 0.0
            for component in net_report.state.components:
                members = [miners_by_id[mid] for mid in component]
                child = replace(ctx)
                self._settle(child, members, ranking)
                latency = net.commit_block(
                    round_index, child.winning_miner, component, sim_time=self.clock.now
                )
                broadcast_latency = max(broadcast_latency, latency)
                settled.append((members, child))
            # The fork-choice-best view is the round's outcome: the round
            # record, rewards included, follows the canonical chain.
            best = net.best_chain()
            ctx = next(
                (c for members, c in settled if any(m.chain is best for m in members)),
                settled[0][1],
            )
            resolved = {
                **net_report.resolved,
                **net.finish_round(sim_time=self.clock.now, latency=broadcast_latency),
            }
        # The round's block is committed: its gradient sets are spent.
        for miner in self.miners:
            miner.reset_round()
        if spec.round_mode == "async":
            # This round's own stragglers are buffered for the next one.
            # Extending (not replacing) keeps entries alive across rounds that
            # cannot aggregate, so an update can accrue staleness > 1 before
            # it is finally folded in.
            self._stale_buffer.extend(
                (np.asarray(u.parameters, dtype=np.float64).copy(), round_index)
                for u in late_updates
            )

        # -- incentive bookkeeping ------------------------------------------------
        discarded: list[int] = []
        if ctx.strategy_outcome is not None:
            discarded = list(ctx.strategy_outcome.discarded_client_ids)
        # The as-experienced reward series; balances are the canonical chain's.
        rewards = {entry.client_id: entry.reward for entry in ctx.reward_list}
        if discarded and isinstance(self.selector, ContributionBasedSelector):
            self.selector.exclude_for_next_round(discarded)
        if self.attack_scheduler is not None:
            # Detection accounting counts both drop paths: Algorithm 2's
            # discard list and the robust defense's rejections.  (Only
            # strategy discards feed the next-round selection exclusion.)
            dropped = sorted(set(discarded) | set(ctx.defense_rejected_ids))
            self.attack_scheduler.record_round(round_index, ctx.attacker_ids, dropped)

        # -- measurement --------------------------------------------------------------
        extras = {
            "delay_breakdown": timing.breakdown.as_dict(),
            "winning_miner": ctx.winning_miner,
            "chain_height": self.chain.height,
            "rejected_uploads": ctx.rejected_uploads,
            "used_clustering_fallback": (
                ctx.contribution_report.used_fallback
                if ctx.contribution_report is not None
                else False
            ),
            "round_mode": spec.round_mode,
            "stragglers": list(ctx.straggler_ids),
            "stale_applied": ctx.stale_applied,
            "stale_rejected": ctx.stale_rejected,
            "defense": spec.defense,
            "defense_rejected": list(ctx.defense_rejected_ids),
            "defense_clipped": ctx.defense_clipped,
            "sim_events": timing.events_processed,
            "event_trace_digest": timing.trace_digest,
        }
        if net is not None:
            # One nested key keeps the global-path extras byte-identical.
            extras["net"] = {
                "topology": spec.topology,
                "online": list(net_report.state.online),
                "components": [list(c) for c in net_report.state.components],
                "partition_active": net_report.state.partition_active,
                "reorged": net_report.reorged,
                "total_reorgs": net.total_reorgs,
                "chain_views": net.chain_views(),
                "lost_uploads": lost_uploads,
                "broadcast_latency": broadcast_latency,
                "consensus_resolved": {int(r): float(d) for r, d in resolved.items()},
            }
        return self._emit(
            round_index,
            timing.total,
            self._round_accuracy(ctx) if Procedure.LOCAL_UPDATE in procedures else 0.0,
            train_loss=(
                float(np.mean([u.train_loss for u in ctx.updates])) if ctx.updates else 0.0
            ),
            participants=list(ctx.selected_clients),
            discarded=discarded,
            attackers=list(ctx.attacker_ids),
            rewards=rewards,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def detection_logs(self):
        """Per-round attacker/drop logs (empty when attacks are disabled)."""
        return [] if self.attack_scheduler is None else list(self.attack_scheduler.logs)

    def average_detection_rate(self) -> float:
        """Average detection rate across logged rounds (Table 2's bottom row)."""
        if self.attack_scheduler is None:
            return 1.0
        return self.attack_scheduler.average_detection_rate()
