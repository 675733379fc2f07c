"""Event-driven vs analytic delay parity (the refactor's safety net).

The discrete-event kernel replaced the closed-form composition of Section 4.6
as the repository's timing source.  These tests pin the two together: for
every workload corner the paper sweeps (n ∈ {20, 100} participants,
m ∈ {2, 4} miners) the kernel-simulated per-round delay *means* of FedAvg,
FAIR-BFL, and the vanilla blockchain must land inside the analytic model's
calibrated range (±15% of its Monte-Carlo mean — generous against Monte-Carlo
error at these sample sizes, tight against structural drift).

The paper's headline delay ordering (Fig. 4a) and the kernel's seed
determinism are asserted on the same samples.

The second half pins :meth:`DelayModel.fl_round` — priced in closed form since
PR 21 — to the kernel it replaced, *bit for bit*: every breakdown field ``==``
(no ``approx``) and the generator left in the same state after every round,
from the sampler up to whole ``fedavg``/``fedprox`` histories.  It also pins
the bug the closed form removes: a round above 200 000 participants used to
exhaust the kernel's event budget.

``VANILLA_GRID`` pins the vanilla round's block packing and timing on a grid
of worker counts, block capacities and miner counts.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.sim.delay import DelayModel, DelayParameters
from repro.sim.rounds import EventRoundSimulator
from repro.store.records import history_to_payload
from repro.utils.rng import new_rng

from delay_oracles import AnalyticDelayModel, kernel_fl_round, kernel_vanilla_round

pytestmark = pytest.mark.sim

PARTICIPANT_COUNTS = (20, 100)
MINER_COUNTS = (2, 4)
REPS = 120
#: Relative tolerance of the calibrated range around the analytic mean.
RANGE_TOLERANCE = 0.15
BATCHES_PER_EPOCH = 5
EPOCHS = 5


def _round(model, system: str, n: int, m: int):
    """One round's breakdown: ``AnalyticDelayModel``'s closed form, or the
    event kernel drawing from a ``DelayModel``'s stream."""
    if system == "fedavg":
        return model.fl_round(
            num_participants=n, batches_per_epoch=BATCHES_PER_EPOCH, epochs=EPOCHS
        )
    if isinstance(model, AnalyticDelayModel):
        if system == "fairbfl":
            return model.fairbfl_round(
                num_participants=n,
                num_miners=m,
                batches_per_epoch=BATCHES_PER_EPOCH,
                epochs=EPOCHS,
            )
        return model.vanilla_blockchain_round(num_transactions=n, num_miners=m)
    kernel = EventRoundSimulator(model.params, model.rng)
    if system == "fairbfl":
        return kernel.fairbfl_round(
            client_ids=n, num_miners=m, batches_per_epoch=BATCHES_PER_EPOCH, epochs=EPOCHS
        ).breakdown
    return kernel_vanilla_round(kernel, num_transactions=n, num_miners=m).breakdown


def _mean(model, system: str, n: int, m: int) -> float:
    return float(np.mean([_round(model, system, n, m).total for _ in range(REPS)]))


@pytest.mark.parametrize("n", PARTICIPANT_COUNTS)
@pytest.mark.parametrize("m", MINER_COUNTS)
@pytest.mark.parametrize("system", ("fedavg", "fairbfl", "blockchain"))
def test_kernel_means_fall_in_analytic_calibrated_range(system, n, m):
    params = DelayParameters()
    event_mean = _mean(DelayModel(params, new_rng(n * 100 + m, "parity-event", system)), system, n, m)
    analytic_mean = _mean(
        AnalyticDelayModel(params, new_rng(n * 100 + m, "parity-analytic", system)), system, n, m
    )
    low = (1.0 - RANGE_TOLERANCE) * analytic_mean
    high = (1.0 + RANGE_TOLERANCE) * analytic_mean
    assert low <= event_mean <= high, (
        f"{system} (n={n}, m={m}): kernel mean {event_mean:.2f}s outside the "
        f"analytic calibrated range [{low:.2f}, {high:.2f}]s"
    )


def test_kernel_preserves_component_structure():
    """The five-term decomposition survives the kernel: each stage mean matches."""
    params = DelayParameters()
    event = DelayModel(params, new_rng(0, "parity-components-event"))
    analytic = AnalyticDelayModel(params, new_rng(0, "parity-components-analytic"))

    def component_means(model) -> dict[str, float]:
        draws = [_round(model, "fairbfl", 100, 2).as_dict() for _ in range(REPS)]
        return {key: float(np.mean([d[key] for d in draws])) for key in ("t_local", "t_up", "t_ex", "t_gl", "t_bl")}

    ev = component_means(event)
    an = component_means(analytic)
    for key in ev:
        assert ev[key] == pytest.approx(an[key], rel=0.2, abs=0.05), (
            f"component {key}: kernel {ev[key]:.3f}s vs analytic {an[key]:.3f}s"
        )


def test_headline_delay_ordering_survives_the_kernel():
    """Fig. 4a on the kernel: FedAvg < FAIR-BFL < vanilla blockchain.

    The paper's workload: n = 100 workers at selection ratio λ = 0.1, so ten
    participants train per round while the vanilla chain still records all
    100 gradient transactions.
    """
    params = DelayParameters()
    model = DelayModel(params, new_rng(42, "parity-ordering"))
    fl = _mean(model, "fedavg", 10, 2)
    fair = _mean(model, "fairbfl", 10, 2)
    chain = _mean(model, "blockchain", 100, 2)
    assert fl < fair < chain


def test_kernel_rounds_are_seed_deterministic():
    params = DelayParameters()

    def series() -> list[float]:
        kernel = EventRoundSimulator(params, new_rng(7, "parity-determinism"))
        return [
            kernel.fairbfl_round(
                client_ids=20, num_miners=2, batches_per_epoch=5, epochs=2
            ).breakdown.total
            for _ in range(10)
        ]

    assert series() == series()


# ---------------------------------------------------------------------------
# The vanilla round's block packing, pinned on a grid.
# ---------------------------------------------------------------------------

#: ``(n, transactions_per_block, m) -> (events_processed, blocks_mined,
#: fork_count, t_up, t_bl)`` of one :func:`kernel_vanilla_round`, recorded
#: while the round still drained a real mempool.  The grid spans n below the
#: block capacity, at it, one past it and an exact multiple of it.
VANILLA_GRID = {
    (1, 1, 1): (3, 1, 0, 0.1, 0.050997268411071994),
    (1, 1, 3): (5, 1, 0, 0.1, 2.2926193320085546),
    (1, 7, 1): (3, 1, 0, 0.1, 2.060006454198668),
    (1, 7, 3): (5, 1, 0, 0.1, 2.0717556455215416),
    (1, 100, 1): (3, 1, 0, 0.1, 0.44687949111503467),
    (1, 100, 3): (5, 1, 0, 0.1, 2.00019104457649),
    (99, 1, 1): (199, 99, 0, 9.89999999999998, 170.83932617720404),
    (99, 1, 3): (405, 99, 8, 9.89999999999998, 305.70638581998634),
    (99, 7, 1): (115, 15, 0, 9.89999999999998, 26.01859059430001),
    (99, 7, 3): (150, 15, 5, 9.89999999999998, 96.09484345065138),
    (99, 100, 1): (101, 1, 0, 9.89999999999998, 0.7717390998695173),
    (99, 100, 3): (103, 1, 0, 9.89999999999998, 0.7198873451180763),
    (100, 1, 1): (201, 100, 0, 9.99999999999998, 199.35238957951327),
    (100, 1, 3): (417, 100, 16, 9.99999999999998, 428.3346889070125),
    (100, 7, 1): (116, 15, 0, 9.99999999999998, 20.375890240636004),
    (100, 7, 3): (148, 15, 2, 9.99999999999998, 53.4416265647494),
    (100, 100, 1): (102, 1, 0, 9.99999999999998, 3.7316054518644),
    (100, 100, 3): (104, 1, 0, 9.99999999999998, 4.630460758175957),
    (101, 1, 1): (203, 101, 0, 10.09999999999998, 204.66777285143564),
    (101, 1, 3): (422, 101, 17, 10.09999999999998, 461.16906219805253),
    (101, 7, 1): (117, 15, 0, 10.09999999999998, 14.888916176554254),
    (101, 7, 3): (149, 15, 2, 10.09999999999998, 49.3419615433404),
    (101, 100, 1): (104, 2, 0, 10.09999999999998, 4.733027702233182),
    (101, 100, 3): (109, 2, 1, 10.09999999999998, 16.817625140246022),
    (250, 1, 1): (501, 250, 0, 25.000000000000085, 522.9127119327671),
    (250, 1, 3): (1044, 250, 43, 25.000000000000085, 1079.716821699794),
    (250, 7, 1): (287, 36, 0, 25.000000000000085, 77.23198841209926),
    (250, 7, 3): (368, 36, 9, 25.000000000000085, 183.570565035974),
    (250, 100, 1): (254, 3, 0, 25.000000000000085, 4.875024231186909),
    (250, 100, 3): (260, 3, 0, 25.000000000000085, 4.438962669137574),
}


@pytest.mark.parametrize("cell", sorted(VANILLA_GRID), ids=lambda c: "n{}-tpb{}-m{}".format(*c))
def test_vanilla_round_matches_the_recorded_grid(cell):
    n, per_block, m = cell
    params = dataclasses.replace(DelayParameters(), transactions_per_block=per_block)
    simulator = EventRoundSimulator(params, new_rng(0, "vanilla-grid", n, per_block, m))
    timing = kernel_vanilla_round(simulator, num_transactions=n, num_miners=m)
    got = (
        timing.events_processed,
        timing.blocks_mined,
        timing.fork_count,
        timing.breakdown.t_up,
        timing.breakdown.t_bl,
    )
    assert got == VANILLA_GRID[cell]
    assert timing.blocks_mined == max(1, math.ceil(n / per_block))


# ---------------------------------------------------------------------------
# DelayModel.fl_round (closed form) == the event kernel, bit for bit.
# ---------------------------------------------------------------------------

def _kernel_fl_round(self, *, num_participants, batches_per_epoch, epochs):
    """``DelayModel.fl_round`` as it was before PR 21: one simulated kernel round."""
    return kernel_fl_round(
        EventRoundSimulator(self.params, self.rng),
        client_ids=num_participants,
        batches_per_epoch=batches_per_epoch,
        epochs=epochs,
    ).breakdown


def _assert_fl_round_is_the_kernel(params, seed, n, batches_per_epoch, epochs, rounds=3):
    model = DelayModel(params, new_rng(seed, "fl-parity"))
    reference = EventRoundSimulator(params, new_rng(seed, "fl-parity"))
    for round_index in range(rounds):
        got = model.fl_round(
            num_participants=n, batches_per_epoch=batches_per_epoch, epochs=epochs
        )
        want = kernel_fl_round(
            reference, client_ids=n, batches_per_epoch=batches_per_epoch, epochs=epochs
        ).breakdown
        for name, value in dataclasses.asdict(want).items():
            assert getattr(got, name) == value, f"round {round_index}: {name}"
        assert model.rng.bit_generator.state == reference.rng.bit_generator.state, (
            f"round {round_index}: generator left in a different state"
        )


_JITTER = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
_SERVICE_TIME = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    batches_per_epoch=st.one_of(st.integers(1, 64), st.floats(0.25, 64.0)),
    epochs=st.integers(1, 5),
    compute_jitter=_JITTER,
    upload_jitter=_JITTER,
    upload_processing=_SERVICE_TIME,
    server_aggregation=_SERVICE_TIME,
)
def test_fl_round_equals_the_kernel_bit_for_bit(
    seed, n, batches_per_epoch, epochs, compute_jitter, upload_jitter,
    upload_processing, server_aggregation,
):
    params = DelayParameters(
        compute_jitter=compute_jitter,
        upload_jitter=upload_jitter,
        upload_processing_per_client=upload_processing,
        server_aggregation_time=server_aggregation,
    )
    _assert_fl_round_is_the_kernel(params, seed, n, batches_per_epoch, epochs)


@pytest.mark.parametrize(
    "params",
    [
        DelayParameters(),
        # Zero jitter: every client finishes and arrives at the same instant.
        DelayParameters(compute_jitter=0.0, upload_jitter=0.0),
    ],
    ids=["default", "all-ties"],
)
def test_fl_round_equals_the_kernel_at_the_cohort_benchmark_size(params):
    _assert_fl_round_is_the_kernel(params, seed=0, n=4608, batches_per_epoch=1.0, epochs=1, rounds=2)


@pytest.mark.parametrize("n", (200_001, 1_000_000))
def test_fl_round_prices_rounds_above_the_kernel_event_budget(n):
    """Five events per client against ``max_events=1_000_000`` used to raise here."""
    params = DelayParameters()
    b = DelayModel(params, new_rng(0, "fl-scale")).fl_round(
        num_participants=n, batches_per_epoch=2.0, epochs=1
    )
    assert all(math.isfinite(v) for v in b.as_dict().values())
    assert b.t_up >= n * params.upload_processing_per_client
    assert b.t_local > 0.0 and b.t_gl > 0.0 and b.t_ex == b.t_bl == 0.0


_TINY = dict(num_clients=8, num_samples=400, num_rounds=2, seed=3)
#: The ``cohort_population`` benchmark's smoke cell: 4 096 clients is exactly
#: ``FedAvgTrainer.STREAM_THRESHOLD``, so the round takes the streaming fold.
_COHORT_STREAM = dict(
    backend="cohort", num_clients=4096, num_samples=64, distinct_shards=8, participation=1.0,
    scheme="shard", model_name="logreg", epochs=1, batch_size=32, num_rounds=1, seed=0,
)


@pytest.mark.parametrize(
    "system, fields",
    [
        ("fedavg", _TINY),
        ("fedprox", dict(_TINY, drop_percent=0.25, participation=1.0)),
        ("fedavg", _COHORT_STREAM),
    ],
    ids=["fedavg-serial", "fedprox-drops", "fedavg-cohort-stream"],
)
def test_trainer_histories_equal_the_kernel_priced_ones(monkeypatch, system, fields):
    def payload() -> str:
        return json.dumps(history_to_payload(api.run(system, **fields)), sort_keys=True)

    closed_form = payload()
    monkeypatch.setattr(DelayModel, "fl_round", _kernel_fl_round)
    assert closed_form == payload()
    if "backend" in fields:
        assert "cohort_stream" in closed_form
