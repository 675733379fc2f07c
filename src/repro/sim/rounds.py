"""Event-driven round simulation on the discrete-event kernel.

This module replaces the closed-form composition of the Section 4.6 delay
model with an actual simulation: one :class:`EventRoundSimulator` builds an
:class:`~repro.sim.events.EventKernel` per round and lets the system's actors
schedule their work on it —

* every selected **client** is a named process that finishes local SGD after a
  sampled compute time and then uploads its gradient (a delivery event);
* the receiving **miner** verifies uploads as serialised events;
* **miners** exchange gradient sets as ``m(m-1)`` kernel delivery events at
  one constant latency (per-link, topology-aware latencies are the gossip
  substrate's job — :class:`~repro.net.gossip.GossipNetwork`), compute the
  global update, and race to solve the proof of work (the earliest solve
  event wins and cancels the runners-up);
* in the vanilla baseline the **mempool** is drained one
  :meth:`~repro.blockchain.mempool.Mempool.take_block` per solve event, and
  fork merges are scheduled as serialised reorganisation events.

The per-component distributions are exactly those of
:class:`~repro.sim.delay.DelayParameters`, so under the synchronous round mode
the simulated breakdown means match the analytic model (asserted by
``tests/test_delay_parity.py``).  The kernel additionally unlocks round modes
a closed form cannot express:

* ``sync`` — the upload window opens only after the slowest client finishes
  local training (the paper's additive ``T_local + T_up`` decomposition) and
  closes when every upload has arrived;
* ``semi_sync`` — clients upload as soon as they finish (pipelined) and the
  window closes at ``straggler_deadline`` simulated seconds; later arrivals
  are stragglers, excluded from this round's aggregation;
* ``async`` — pipelined uploads, and the window closes as soon as a quorum
  fraction of arrivals is in; the rest arrive stale and are folded into a
  later aggregation with staleness-decayed weights
  (:func:`repro.fl.aggregation.staleness_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.blockchain.consensus import ForkModel
from repro.sim.delay import DelayParameters, RoundDelayBreakdown
from repro.sim.events import EventKernel
from repro.utils.validation import check_choice, check_fraction, check_positive

__all__ = [
    "ROUND_MODES",
    "RoundTiming",
    "EventRoundSimulator",
]

#: Supported round synchronisation modes.
ROUND_MODES = ("sync", "semi_sync", "async")

#: Stage names understood by the simulator (mirror Procedures I-V).
_STAGES = ("local", "upload", "exchange", "global", "mining")


def _schedule_serial_chain(kernel: EventKernel, durations, name: str, on_done) -> None:
    """Fire one named event per duration, back to back, then call ``on_done``.

    The shared shape of every serialised pipeline in a round — upload
    verification, per-transaction handling, block broadcast, fork merges:
    event ``i+1`` is scheduled when event ``i`` fires, and ``on_done`` runs at
    the final event's timestamp (immediately if ``durations`` is empty).
    """
    queue = [float(d) for d in durations]
    if not queue:
        on_done()
        return

    def step(index: int) -> None:
        if index + 1 == len(queue):
            on_done()
        else:
            kernel.schedule(queue[index + 1], (lambda: step(index + 1)), name=name)

    kernel.schedule(queue[0], (lambda: step(0)), name=name)


@dataclass(frozen=True)
class ClientArrival:
    """When one client's gradient became available to its miner."""

    client_id: int
    compute_done: float
    arrival: float
    on_time: bool


@dataclass(frozen=True)
class RoundTiming:
    """The outcome of one simulated round.

    ``breakdown`` preserves the paper's five-component decomposition (the
    stage boundaries of the event timeline); ``arrivals`` exposes the
    per-client upload arrivals the round modes act on.
    """

    breakdown: RoundDelayBreakdown
    arrivals: tuple[ClientArrival, ...]
    on_time_ids: tuple[int, ...]
    late_ids: tuple[int, ...]
    winning_miner: int | None
    blocks_mined: int
    fork_count: int
    events_processed: int
    trace_digest: str | None

    @property
    def total(self) -> float:
        """Total simulated round delay."""
        return self.breakdown.total


class EventRoundSimulator:
    """Simulates rounds on the event kernel using the calibrated delay constants.

    Parameters
    ----------
    params:
        Calibration constants shared with the analytic model.
    rng:
        Generator for every stochastic draw (compute/upload jitter, solve
        times, fork collisions) *and* the kernel's tie-breaking seed, so one
        stream reproduces the full event timeline.
    round_mode:
        ``sync`` | ``semi_sync`` | ``async`` (see module docstring).
    straggler_deadline:
        Upload-window close time in simulated seconds (``semi_sync`` only).
        If no upload has arrived by the deadline the window stays open until
        the first one (a round always aggregates at least one gradient).
    async_quorum:
        Fraction of selected clients whose arrival closes the window
        (``async`` only); clamped to at least one client.
    record_trace:
        Record the fired-event trace and report its SHA-256 digest in
        :attr:`RoundTiming.trace_digest` (used by determinism tests).
    """

    def __init__(
        self,
        params: DelayParameters,
        rng: np.random.Generator,
        *,
        round_mode: str = "sync",
        straggler_deadline: float = 6.0,
        async_quorum: float = 0.5,
        record_trace: bool = False,
    ) -> None:
        check_choice("round_mode", round_mode, ROUND_MODES)
        check_positive("straggler_deadline", straggler_deadline)
        check_fraction("async_quorum", async_quorum)
        self.params = params
        self.rng = rng
        self.round_mode = round_mode
        self.straggler_deadline = float(straggler_deadline)
        self.async_quorum = float(async_quorum)
        self.record_trace = bool(record_trace)

    # -- public compositions --------------------------------------------------
    def fairbfl_round(
        self,
        *,
        client_ids: Sequence[int] | int,
        num_miners: int,
        batches_per_epoch: float | Mapping[int, float],
        epochs: int,
        stages: Iterable[str] = _STAGES,
    ) -> RoundTiming:
        """One FAIR-BFL round (any subset of Procedures I-V via ``stages``)."""

        def global_duration(on_time_count: int) -> float:
            """Aggregation plus Algorithm 2 clustering over the on-time uploads."""
            params = self.params
            return params.aggregation_base + params.clustering_per_gradient * max(0, on_time_count)

        return self._simulate(
            client_ids=client_ids,
            num_miners=num_miners,
            batches_per_epoch=batches_per_epoch,
            epochs=epochs,
            stages=frozenset(stages),
            global_duration=global_duration,
        )

    def vanilla_round(
        self,
        *,
        num_transactions: int,
        num_miners: int,
        mempool=None,
        on_block: Callable[[list, int], None] | None = None,
        miners: Sequence | None = None,
    ) -> RoundTiming:
        """One vanilla-blockchain round: drain the transaction queue into blocks.

        When ``mempool`` is given it must already hold the round's
        transactions; each solve event drains one ``take_block`` batch and
        ``on_block`` receives ``(batch, winner_index)`` (this is how
        :class:`~repro.sim.vanilla_blockchain.VanillaBlockchainSimulator`
        builds real blocks at event time).  Without a mempool the queueing is
        simulated with uniformly sized stand-in transactions, reproducing the
        analytic ``ceil(n / transactions_per_block)`` block count.  Passing
        real ``miners`` makes each of them schedule its own solve event via
        :meth:`~repro.blockchain.miner.Miner.schedule_solve`.

        Vanilla rounds are always synchronous — the baseline has no straggler
        handling; that is FAIR-BFL's advantage to demonstrate.
        """
        if num_transactions < 0:
            raise ValueError(f"num_transactions must be >= 0, got {num_transactions}")
        return self._simulate(
            client_ids=0,  # the pure-blockchain baseline of Fig. 4a trains nothing
            num_miners=num_miners,
            batches_per_epoch=0.0,
            epochs=0,
            stages=frozenset(),
            global_duration=None,
            vanilla_tx_count=int(num_transactions),
            mempool=mempool,
            on_block=on_block,
            miners=miners,
            force_sync=True,
        )

    # -- the simulation -------------------------------------------------------
    def _simulate(
        self,
        *,
        client_ids: Sequence[int] | int,
        num_miners: int,
        batches_per_epoch: float | Mapping[int, float],
        epochs: int,
        stages: frozenset,
        global_duration: Callable[[int], float] | None,
        vanilla_tx_count: int | None = None,
        mempool=None,
        on_block: Callable[[list, int], None] | None = None,
        miners: Sequence | None = None,
        force_sync: bool = False,
    ) -> RoundTiming:
        unknown = stages - set(_STAGES)
        if unknown:
            raise ValueError(f"unknown simulation stages: {sorted(unknown)}")
        params = self.params
        mode = "sync" if force_sync else self.round_mode
        ids = list(range(client_ids)) if isinstance(client_ids, int) else [int(c) for c in client_ids]
        n = len(ids)

        kernel = EventKernel(
            seed=int(self.rng.integers(0, 2**63)), record_trace=self.record_trace
        )

        # -- per-client draws (vectorised, like the analytic model) ----------
        if "local" in stages and n:
            if isinstance(batches_per_epoch, Mapping):
                means = np.array(
                    [
                        params.compute_time_per_batch * float(batches_per_epoch[cid]) * int(epochs)
                        for cid in ids
                    ]
                )
            else:
                means = np.full(
                    n, params.compute_time_per_batch * float(batches_per_epoch) * int(epochs)
                )
            compute = means * self.rng.lognormal(0.0, params.compute_jitter, size=n)
        else:
            compute = np.zeros(n)
        if "upload" in stages and n:
            upload = params.upload_mean * self.rng.lognormal(0.0, params.upload_jitter, size=n)
        else:
            upload = np.zeros(n)

        # Mutable round state shared by the event callbacks below.
        state = {
            "arrived": [],  # list[(client_id, compute_done, arrival)]
            "window_closed": False,
            "awaiting_first": False,
            "verify_end": 0.0,
            "exchange_end": 0.0,
            "global_end": 0.0,
            "mining_end": 0.0,
            "winner": None,
            "blocks": 0,
            "forks": 0,
            "on_time": [],
        }
        quorum = max(1, int(np.ceil(self.async_quorum * n))) if n else 0
        barrier = kernel.signal("upload-window-open")

        # -- Procedure I + II: client processes ------------------------------
        def client_process(index: int, cid: int):
            yield float(compute[index])
            done = kernel.now
            if "upload" not in stages:
                state["arrived"].append((cid, done, done))
                maybe_close_window()
                return
            if mode == "sync":
                yield barrier
            yield float(upload[index])
            state["arrived"].append((cid, done, kernel.now))
            maybe_close_window()

        def maybe_close_window() -> None:
            if state["window_closed"] or not n:
                return
            arrived = len(state["arrived"])
            if mode == "sync":
                if arrived == n:
                    close_window()
            elif mode == "async":
                if arrived >= quorum:
                    close_window()
            else:  # semi_sync
                if arrived == n or (state["awaiting_first"] and arrived >= 1):
                    close_window()

        def close_window() -> None:
            state["window_closed"] = True
            state["on_time"] = [cid for cid, _done, _arr in state["arrived"]]
            start_verification()

        if n:
            for index, cid in enumerate(ids):
                kernel.spawn(f"client-{cid}", client_process(index, cid))
            if mode == "sync":
                # The window opens when the slowest client finishes Procedure I
                # (the barrier behind the paper's additive decomposition).
                kernel.schedule_at(
                    float(compute.max()), barrier.fire, name="local-phase:complete"
                )
            elif mode == "semi_sync":
                barrier.fire()

                def deadline_hit() -> None:
                    if state["window_closed"]:
                        return
                    if state["arrived"]:
                        close_window()
                    else:
                        state["awaiting_first"] = True

                kernel.schedule(
                    self.straggler_deadline, deadline_hit, name="straggler-deadline"
                )
            else:
                barrier.fire()
        else:
            state["window_closed"] = True

        # -- Procedure II (receiver side): serialised upload verification ----
        def start_verification() -> None:
            count = len(state["on_time"]) if "upload" in stages else 0

            def done() -> None:
                state["verify_end"] = kernel.now
                after_uploads()

            _schedule_serial_chain(
                kernel,
                [params.upload_processing_per_client] * count,
                "miner:verify-upload",
                done,
            )

        def after_uploads() -> None:
            if vanilla_tx_count is not None:
                start_tx_processing()
            else:
                start_exchange()

        # -- vanilla: per-transaction handling then block mining --------------
        def start_tx_processing() -> None:
            def done() -> None:
                state["verify_end"] = kernel.now
                start_vanilla_mining()

            _schedule_serial_chain(
                kernel,
                [params.tx_processing_time] * vanilla_tx_count,
                "mempool:process-tx",
                done,
            )

        fork_model: ForkModel = params.fork_model

        def start_vanilla_mining() -> None:
            state["exchange_end"] = kernel.now
            state["global_end"] = kernel.now
            pool = mempool
            if pool is None:
                # Uniform stand-in transactions reproduce the analytic
                # ceil(n / transactions_per_block) queueing behaviour.
                pending = {"blocks": max(1, -(-vanilla_tx_count // params.transactions_per_block))}

                def take_batch() -> bool:
                    pending["blocks"] -= 1
                    return pending["blocks"] > 0

            else:

                def take_batch() -> bool:
                    batch = pool.take_block()
                    if on_block is not None:
                        on_block(batch, int(state["winner"] or 0))
                    return pool.pending_count > 0

            def mine_next_block() -> None:
                run_competition(on_won=lambda: after_block(take_batch()))

            def after_block(more: bool) -> None:
                state["blocks"] += 1
                collisions = fork_model.sample_collisions(self.rng, num_miners)
                state["forks"] += collisions
                _schedule_serial_chain(
                    kernel,
                    fork_model.merge_schedule(collisions),
                    "fork:merge",
                    (lambda: finish_or_continue(more)),
                )

            def finish_or_continue(more: bool) -> None:
                if more:
                    mine_next_block()
                else:
                    state["mining_end"] = kernel.now

            mine_next_block()

        # -- Procedure III: gradient-set exchange over the network ------------
        def start_exchange() -> None:
            if "exchange" not in stages or num_miners <= 1:
                state["exchange_end"] = kernel.now
                start_global()
                return
            # Every miner broadcasts its gradient set to every other; all
            # m(m-1) deliveries share one constant latency, so the stage
            # draws nothing from the simulator stream.
            latency = params.exchange_base + params.exchange_per_miner * (num_miners - 1)
            remaining = {"count": num_miners * (num_miners - 1)}

            def delivered() -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    state["exchange_end"] = kernel.now
                    start_global()

            for a in range(num_miners):
                for b in range(num_miners):
                    if a != b:
                        kernel.schedule(latency, delivered, name=f"net:miner-{a}->miner-{b}")

        # -- Procedure IV: global update -------------------------------------
        def start_global() -> None:
            if "global" not in stages or global_duration is None:
                state["global_end"] = kernel.now
                start_mining()
                return
            duration = float(global_duration(len(state["on_time"])))

            def done() -> None:
                state["global_end"] = kernel.now
                start_mining()

            kernel.schedule(duration, done, name="miner:global-update")

        # -- Procedure V: mining competition ----------------------------------
        def run_competition(on_won: Callable[[], None]) -> None:
            solves = self.rng.exponential(params.block_interval * num_miners, size=num_miners)
            events = []
            race = {"decided": False}

            def solved(winner_index: int) -> None:
                if race["decided"]:
                    return
                race["decided"] = True
                state["winner"] = winner_index
                for event in events:
                    event.cancel()
                broadcast_block(on_won)

            if miners is not None:
                # Real miner actors register their own solve events.
                for k, miner in enumerate(miners):
                    events.append(
                        miner.schedule_solve(
                            kernel, float(solves[k]), on_solve=(lambda _m, k=k: solved(k))
                        )
                    )
            else:
                for k in range(num_miners):
                    events.append(
                        kernel.schedule(
                            float(solves[k]),
                            (lambda k=k: solved(k)),
                            name=f"miner-{k}:pow-solve",
                        )
                    )

        def broadcast_block(on_done: Callable[[], None]) -> None:
            peers = max(0, num_miners - 1)
            _schedule_serial_chain(
                kernel,
                [params.block_broadcast_per_miner] * peers,
                "block:broadcast",
                on_done,
            )

        def start_mining() -> None:
            if "mining" not in stages or num_miners <= 0:
                state["mining_end"] = kernel.now
                return
            run_competition(on_won=lambda: _finish_single_block())

        def _finish_single_block() -> None:
            state["blocks"] += 1
            state["mining_end"] = kernel.now

        # Kick the pipeline off for client-less rounds (pure chain timing);
        # rounds with clients start via the client arrivals above.
        if not n:
            kernel.schedule(0.0, after_uploads, name="round:start")

        kernel.run()

        # -- assemble the timing result ---------------------------------------
        arrived_ids = {cid for cid, _d, _a in state["arrived"]}
        on_time = list(state["on_time"]) if n else []
        on_time_set = set(on_time)
        arrival_by_id = {cid: (done, arr) for cid, done, arr in state["arrived"]}
        arrivals = []
        for index, cid in enumerate(ids):
            if cid in arrival_by_id:
                done, arr = arrival_by_id[cid]
            else:  # event-budget edge: never arrived (should not happen)
                done, arr = float(compute[index]), float("inf")
            arrivals.append(
                ClientArrival(
                    client_id=cid,
                    compute_done=done,
                    arrival=arr,
                    on_time=cid in on_time_set,
                )
            )
        late = [cid for cid in ids if cid not in on_time_set and cid in arrived_ids]

        t_local = max(
            (a.compute_done for a in arrivals if a.on_time), default=0.0
        ) if "local" in stages else 0.0
        if "upload" in stages:
            t_up = max(0.0, state["verify_end"] - t_local)
        elif vanilla_tx_count is not None:
            t_up = state["verify_end"]
        else:
            t_up = 0.0
        t_ex = max(0.0, state["exchange_end"] - state["verify_end"])
        t_gl = max(0.0, state["global_end"] - state["exchange_end"])
        t_bl = max(0.0, state["mining_end"] - state["global_end"])
        breakdown = RoundDelayBreakdown(
            t_local=t_local, t_up=t_up, t_ex=t_ex, t_gl=t_gl, t_bl=t_bl
        )
        return RoundTiming(
            breakdown=breakdown,
            arrivals=tuple(arrivals),
            on_time_ids=tuple(on_time),
            late_ids=tuple(late),
            winning_miner=state["winner"],
            blocks_mined=int(state["blocks"]),
            fork_count=int(state["forks"]),
            events_processed=kernel.events_processed,
            trace_digest=kernel.trace_digest() if self.record_trace else None,
        )
