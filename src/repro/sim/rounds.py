"""Event-driven round simulation on the discrete-event kernel.

This module replaces the closed-form composition of the Section 4.6 delay
model with an actual simulation: one :class:`EventRoundSimulator` builds an
:class:`~repro.sim.events.EventKernel` per round and lets the system's actors
schedule their work on it —

* every selected **client** is a chain of timed callbacks: it finishes local
  SGD after a sampled compute time, then uploads its gradient (a delivery
  event);
* the receiving **miner** verifies uploads as serialised events;
* **miners** exchange gradient sets as ``m(m-1)`` kernel delivery events at
  one constant latency (per-link, topology-aware latencies are the gossip
  substrate's job — :class:`~repro.net.gossip.GossipNetwork`), compute the
  global update, and race to solve the proof of work (the earliest solve
  event wins and cancels the runners-up); this one race both prices
  ``t_bl`` and names the block's signer (:attr:`RoundTiming.ranking`).

The vanilla baseline has its own, shorter round
(:meth:`EventRoundSimulator.vanilla_round`): the round's transactions are
handled one event each, then competitions repeat until none is pending —
each winner takes one block's worth from a pending count, and the
competition's forks merge as serialised reorganisation events.  The round
prices the queue; it builds no transactions or blocks.

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

from repro.sim.delay import DelayParameters, RoundDelayBreakdown
from repro.sim.events import EventKernel

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


def _compete(
    kernel: EventKernel,
    rng: np.random.Generator,
    params: DelayParameters,
    num_miners: int,
    on_won: Callable[[tuple[int, ...]], None],
) -> None:
    """One Procedure V race: ``m`` solve events, the earliest wins.

    The winner's solve cancels the runners-up (Algorithm 1 lines 34-38:
    miners stop on receiving a valid block), its block is broadcast to the
    ``m - 1`` peers as serialised events, and ``on_won(ranking)`` runs once
    the broadcast is done, ``ranking`` being every miner index in solve
    order, the winner first.
    """
    solves = rng.exponential(params.block_interval * num_miners, size=num_miners)

    def solved(winner: int) -> None:
        for event in events:
            event.cancel()
        ranking = (winner, *(int(k) for k in np.argsort(solves, kind="stable") if k != winner))
        _schedule_serial_chain(
            kernel,
            [params.block_broadcast_per_miner] * (num_miners - 1),
            "block:broadcast",
            (lambda: on_won(ranking)),
        )

    events = [
        kernel.schedule(float(solves[k]), (lambda k=k: solved(k)), name=f"miner-{k}:pow-solve")
        for k in range(num_miners)
    ]


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
    per-client upload arrivals the round modes act on; ``ranking`` lists the
    miners in mining-race solve order (empty without a mining stage).
    """

    breakdown: RoundDelayBreakdown
    arrivals: tuple[ClientArrival, ...]
    on_time_ids: tuple[int, ...]
    late_ids: tuple[int, ...]
    blocks_mined: int
    fork_count: int
    events_processed: int
    trace_digest: str | None
    ranking: tuple[int, ...] = ()

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

    The round-mode values are a validated scenario's fields, whose rules
    live on the field; they are not checked again here.
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
        """One FAIR-BFL round (any subset of Procedures I-V via ``stages``).

        The pipeline: clients train and upload through the round mode's
        window, then Procedures II-V run on the on-time uploads.
        """
        stages = frozenset(stages)
        if stages - set(_STAGES) or "upload" not in stages:
            raise ValueError(
                f"simulation stages must include 'upload' and come from {_STAGES}, "
                f"got {sorted(stages)}"
            )
        params = self.params
        mode = self.round_mode
        ids = list(range(client_ids)) if isinstance(client_ids, int) else [int(c) for c in client_ids]
        n = len(ids)
        kernel = self._kernel()

        # -- per-client draws (vectorised, like the analytic model) ----------
        if "local" in stages:
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
        upload = params.upload_mean * self.rng.lognormal(0.0, params.upload_jitter, size=n)

        # Mutable round state shared by the event callbacks below.
        state = {
            "arrived": [],  # list[(client_id, compute_done, arrival)]
            "window_open": mode != "sync",
            "window_closed": False,
            "awaiting_first": False,
            "verify_end": 0.0,
            "exchange_end": 0.0,
            "global_end": 0.0,
            "mining_end": 0.0,
            "blocks": 0,
            "on_time": [],
            "ranking": (),
        }
        quorum = max(1, int(np.ceil(self.async_quorum * n)))
        held: list[Callable[[], None]] = []  # sync: uploads waiting for the window

        # -- Procedure I + II: each client computes, then uploads ------------
        def start_client(index: int, cid: int) -> None:
            kernel.schedule(
                float(compute[index]), (lambda: computed(index, cid)), name=f"client-{cid}"
            )

        def computed(index: int, cid: int) -> None:
            done = kernel.now

            def upload_now() -> None:
                kernel.schedule(
                    float(upload[index]), (lambda: arrive(cid, done)), name=f"client-{cid}"
                )

            if mode != "sync":
                upload_now()
            elif state["window_open"]:
                kernel.schedule(0.0, upload_now, name="upload-window-open:wake")
            else:
                held.append(upload_now)

        def open_window() -> None:
            # The slowest client finished Procedure I: release the held uploads
            # (the barrier behind the paper's additive decomposition).
            state["window_open"] = True
            for upload_now in held:
                kernel.schedule(0.0, upload_now, name="upload-window-open:wake")

        def arrive(cid: int, done: float) -> None:
            state["arrived"].append((cid, done, kernel.now))
            if state["window_closed"]:
                return
            arrived = len(state["arrived"])
            if (
                arrived == n
                or (mode == "async" and arrived >= quorum)
                or (mode == "semi_sync" and state["awaiting_first"])
            ):
                close_window()

        def close_window() -> None:
            state["window_closed"] = True
            state["on_time"] = [cid for cid, _done, _arr in state["arrived"]]
            start_verification()

        def deadline_hit() -> None:
            if state["window_closed"]:
                return
            if state["arrived"]:
                close_window()
            else:
                state["awaiting_first"] = True

        # -- Procedure II (receiver side): serialised upload verification ----
        def start_verification() -> None:
            def done() -> None:
                state["verify_end"] = kernel.now
                start_exchange()

            _schedule_serial_chain(
                kernel,
                [params.upload_processing_per_client] * len(state["on_time"]),
                "miner:verify-upload",
                done,
            )

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
            if "global" not in stages:
                state["global_end"] = kernel.now
                start_mining()
                return

            def done() -> None:
                state["global_end"] = kernel.now
                start_mining()

            # Aggregation plus Algorithm 2 clustering over the on-time uploads.
            on_time = len(state["on_time"])
            duration = float(params.aggregation_base + params.clustering_per_gradient * on_time)
            kernel.schedule(duration, done, name="miner:global-update")

        # -- Procedure V: one block, no forks (Assumptions 1 + 2) -------------
        def start_mining() -> None:
            if "mining" not in stages or num_miners <= 0:
                state["mining_end"] = kernel.now
                return
            _compete(kernel, self.rng, params, num_miners, block_won)

        def block_won(ranking: tuple[int, ...]) -> None:
            state["blocks"] += 1
            state["mining_end"] = kernel.now
            state["ranking"] = ranking

        # -- kick off: every client starts at 0, then the window's own event --
        for index, cid in enumerate(ids):
            kernel.schedule(
                0.0, (lambda index=index, cid=cid: start_client(index, cid)), name=f"client-{cid}"
            )
        if not n:
            kernel.schedule(0.0, start_verification, name="round:start")
        elif mode == "sync":
            kernel.schedule_at(float(compute.max()), open_window, name="local-phase:complete")
        elif mode == "semi_sync":
            kernel.schedule(self.straggler_deadline, deadline_hit, name="straggler-deadline")
        kernel.run()

        # -- assemble the timing result ---------------------------------------
        on_time_set = set(state["on_time"])
        arrival_by_id = {cid: (done, arr) for cid, done, arr in state["arrived"]}
        arrivals = tuple(
            ClientArrival(cid, *arrival_by_id[cid], on_time=cid in on_time_set) for cid in ids
        )
        t_local = max((a.compute_done for a in arrivals if a.on_time), default=0.0)
        breakdown = RoundDelayBreakdown(
            t_local=t_local,
            t_up=max(0.0, state["verify_end"] - t_local),
            t_ex=max(0.0, state["exchange_end"] - state["verify_end"]),
            t_gl=max(0.0, state["global_end"] - state["exchange_end"]),
            t_bl=max(0.0, state["mining_end"] - state["global_end"]),
        )
        return self._timing(
            kernel,
            breakdown,
            arrivals=arrivals,
            on_time_ids=tuple(state["on_time"]),
            late_ids=tuple(cid for cid in ids if cid not in on_time_set),
            blocks_mined=state["blocks"],
            fork_count=0,
            ranking=state["ranking"],
        )

    def vanilla_round(self, *, transactions: int, num_miners: int) -> RoundTiming:
        """One vanilla-blockchain round: queue ``transactions`` into bounded blocks.

        Each transaction is handled as one serialised ``mempool:process-tx``
        event; then mining competitions repeat until none is pending.  Each
        winner takes ``min(transactions_per_block, pending)`` of them (a round
        with none still mines one block), and the competition's forks merge
        before the next one.  Only the count matters: the baseline's cost is
        in this timing, not in ledger bytes.

        Vanilla rounds are always synchronous — the baseline has no straggler
        handling; that is FAIR-BFL's advantage to demonstrate.
        """
        params = self.params
        fork_model = params.fork_model
        kernel = self._kernel()
        state = {"handled": 0.0, "mined": 0.0, "blocks": 0, "forks": 0, "pending": transactions}

        def mine_next_block() -> None:
            _compete(kernel, self.rng, params, num_miners, block_won)

        def handled() -> None:
            state["handled"] = kernel.now
            mine_next_block()

        def block_won(_ranking: tuple[int, ...]) -> None:
            state["pending"] -= min(params.transactions_per_block, state["pending"])
            state["blocks"] += 1
            collisions = fork_model.sample_collisions(self.rng, num_miners)
            state["forks"] += collisions
            _schedule_serial_chain(
                kernel,
                fork_model.merge_schedule(collisions),
                "fork:merge",
                mine_next_block if state["pending"] else mined,
            )

        def mined() -> None:
            state["mined"] = kernel.now

        tx_times = [params.tx_processing_time] * transactions
        kernel.schedule(
            0.0,
            (lambda: _schedule_serial_chain(kernel, tx_times, "mempool:process-tx", handled)),
            name="round:start",
        )
        kernel.run()
        breakdown = RoundDelayBreakdown(
            t_local=0.0,
            t_up=state["handled"],
            t_ex=0.0,
            t_gl=0.0,
            t_bl=max(0.0, state["mined"] - state["handled"]),
        )
        return self._timing(
            kernel, breakdown, blocks_mined=state["blocks"], fork_count=state["forks"]
        )

    def _kernel(self) -> EventKernel:
        """A fresh kernel for one round, seeded from the simulator stream."""
        return EventKernel(
            seed=int(self.rng.integers(0, 2**63)), record_trace=self.record_trace
        )

    def _timing(
        self,
        kernel: EventKernel,
        breakdown: RoundDelayBreakdown,
        *,
        blocks_mined: int,
        fork_count: int,
        arrivals: tuple[ClientArrival, ...] = (),
        on_time_ids: tuple[int, ...] = (),
        late_ids: tuple[int, ...] = (),
        ranking: tuple[int, ...] = (),
    ) -> RoundTiming:
        return RoundTiming(
            breakdown=breakdown,
            arrivals=arrivals,
            on_time_ids=on_time_ids,
            late_ids=late_ids,
            blocks_mined=int(blocks_mined),
            fork_count=int(fork_count),
            events_processed=kernel.events_processed,
            trace_digest=kernel.trace_digest() if self.record_trace else None,
            ranking=ranking,
        )

