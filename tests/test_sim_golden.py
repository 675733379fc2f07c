"""Golden pin of every round shape the event kernel simulates.

Each cell runs at seed 0 and must reproduce, byte for byte, the values
recorded below: the SHA-256 of its canonical history payload, plus per round
the first 16 hex digits of the FAIR-BFL ``event_trace_digest``, the vanilla
chain's ``(sim_events, blocks_mined, fork_count, chain_height)`` or the FL
baselines' simulated round delay.

The cells cover what the stored golden replays (``tests/test_net_parity.py``)
do not:

* ``fairbfl`` and ``fairbfl-discard`` with attacks, under every operating
  mode (``bfl``, ``fl_only``, ``chain_only``) and every round mode, plus a
  ``semi_sync`` round whose deadline passes before any upload has arrived;
* the ``blockchain`` baseline at 250 workers (three blocks a round, with
  forks) for m in {2, 4, 8};
* one ``ring`` FAIR-BFL run with a partition that heals and a churned node;
* ``fedavg`` behind ``norm_clip+krum`` on the serial and the cohort backend
  (one digest), and ``fedprox`` with straggler drops and a proximal term.

A failure here means simulated time, the event order or the histories built
on them changed; a refactor of ``sim/`` must leave every value as it is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.store.keys import canonical_json
from repro.store.records import history_to_payload

pytestmark = pytest.mark.sim

_BASE = dict(name="golden", num_clients=10, num_samples=400, num_rounds=3, seed=0)


def _cells() -> dict[str, dict]:
    cells = {}
    for system in ("fairbfl", "fairbfl-discard"):
        for mode in ("bfl", "fl_only", "chain_only"):
            for round_mode in ("sync", "semi_sync", "async"):
                cells[f"{system}/{mode}/{round_mode}"] = dict(
                    system=system,
                    mode=mode,
                    round_mode=round_mode,
                    straggler_deadline=3.0,
                    attacks=True,
                )
    cells["fairbfl/bfl/semi_sync/deadline-before-any-upload"] = dict(
        system="fairbfl", round_mode="semi_sync", straggler_deadline=0.01, attacks=True
    )
    for miners in (2, 4, 8):
        cells[f"blockchain/m={miners}"] = dict(
            system="blockchain", num_clients=250, miners=miners
        )
    cells["fairbfl/ring/partition+churn"] = dict(
        system="fairbfl",
        topology="ring",
        miners=4,
        num_rounds=4,
        partition="1-2:0|1",
        churn="2:-3",
    )
    for backend in ("serial", "cohort"):
        cells[f"fedavg/norm_clip+krum/{backend}"] = dict(
            system="fedavg", defense="norm_clip+krum", backend=backend
        )
    cells["fedprox/drop=0.3/mu=0.1"] = dict(system="fedprox", drop_percent=0.3, proximal_mu=0.1)
    return cells


CELLS = _cells()


def _observe(name: str) -> tuple[str, list]:
    """``(payload digest, per-round values)`` of one cell's history."""
    spec = ScenarioSpec(**{**_BASE, **CELLS[name]})
    history = ExperimentEngine().run(spec)
    payload = history_to_payload(history)
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    if spec.system == "blockchain":
        keys = ("sim_events", "blocks_mined", "fork_count", "chain_height")
        rounds = [tuple(r.extras[k] for k in keys) for r in history.rounds]
    elif spec.system in ("fedavg", "fedprox"):
        # The FL baselines price a round in closed form: no event trace.
        rounds = [r.delay for r in history.rounds]
    else:
        rounds = [r.extras["event_trace_digest"][:16] for r in history.rounds]
    return digest, rounds


GOLDEN: dict[str, tuple[str, list]] = {
    "blockchain/m=2": (
        "0513c5bbae8a0de3d8b8d5f00f848403ead7b89776ada0867241c293e6e1ba4a",
        [(257, 3, 0, 4), (259, 3, 2, 7), (257, 3, 0, 10)],
    ),
    "blockchain/m=4": (
        "226d51bfe9259417c8305b167f5d7aaa16a80053da4a20abc9410a4dded1ee73",
        [(264, 3, 1, 4), (264, 3, 1, 7), (263, 3, 0, 10)],
    ),
    "blockchain/m=8": (
        "294ba81f64d6cd9ad215ce949c6f8ff7ceb7a02c101b1c508c92e32c7bf4c0ef",
        [(276, 3, 1, 4), (276, 3, 1, 7), (277, 3, 2, 10)],
    ),
    "fedavg/norm_clip+krum/cohort": (
        "de2d00a45159ca48867fff25eb52e628ee1ace0a153dcba8734ad7ddbd0b2b7a",
        [2.983220035189591, 4.45607176718065, 3.688891711633457],
    ),
    "fedavg/norm_clip+krum/serial": (
        "de2d00a45159ca48867fff25eb52e628ee1ace0a153dcba8734ad7ddbd0b2b7a",
        [2.983220035189591, 4.45607176718065, 3.688891711633457],
    ),
    "fedprox/drop=0.3/mu=0.1": (
        "14ff1cf93a57220860e5acd6b0f256924f01e0b6e6b43b35f556f6eb7312f33c",
        [3.4210856128478486, 3.159250089663849, 4.856875997657252],
    ),
    "fairbfl-discard/bfl/async": (
        "e7c128034cb09078cc375cb51f766ca54eb2f56826dae43f50e323dca67e62a0",
        ["78e524b8ac85531a", "dab18f79860d0e5d", "07614b8d48d2a67c"],
    ),
    "fairbfl-discard/bfl/semi_sync": (
        "64f9aa4b2e1b249b0e35771be9e85922c07f37a7a66f3efc5b6c4e6a96d7e27b",
        ["3cb2dfbe0f4bf072", "9fb40ea4503ccff7", "6ea18b245b9e2adc"],
    ),
    "fairbfl-discard/bfl/sync": (
        "e1f63465aabafe04bbfbd69ef2f7735b52ddd0ce073a844c9861d3efccb25368",
        ["71d92da859a67838", "214f37a7f1bb5ca1", "f55c568de1ea99ee"],
    ),
    "fairbfl-discard/chain_only/async": (
        "005ae3f021f456e96cf7c11e319c8519556d5c9d521eb93dab5858e599fc7123",
        ["8e3c5043b89c121d", "71475a0cc4a16a7d", "900804cf34971a2e"],
    ),
    "fairbfl-discard/chain_only/semi_sync": (
        "f55f807aacdc611f6780d32a1f4d9d4b6262aa58524a956c6fecd79b909bcf3c",
        ["7e04c3b3b4967e89", "050e8782478c95e9", "54a9ece07d5fbf76"],
    ),
    "fairbfl-discard/chain_only/sync": (
        "a10f8140b22a7d6bf2289566b6c2454aee4e5c481d1c3f136195ff2f67bf3c26",
        ["d59e81f6bcf5c989", "1b3d074705b6b851", "c55225a8b771fd70"],
    ),
    "fairbfl-discard/fl_only/async": (
        "7811719b3a30d67f60127763e8bdcb1a4fa2d6d371b956f9a26377db25eb81e5",
        ["52f81ae51c3605f0", "91406159f78f03af", "ea1c8d9af35ee12c"],
    ),
    "fairbfl-discard/fl_only/semi_sync": (
        "fbc6837c11d0d71f4cd6094b81bc32ae5173a2482e37e2f5c81835a11939f09a",
        ["138989daa0f4a0d1", "bf0d415341695b2f", "dd1f166b441d6dbd"],
    ),
    "fairbfl-discard/fl_only/sync": (
        "35712209c459de89ed879227bfdb470a682ac2f4329fb4c054c37302a724215e",
        ["abfb222475e76fcd", "bf2aebc26cce344d", "74a004a7aedabc3a"],
    ),
    "fairbfl/bfl/async": (
        "037e93c58a09908906e426538948cc55914fd5c51e538d2ba9e71fec017eed9d",
        ["78e524b8ac85531a", "dab18f79860d0e5d", "038edbe5177c0011"],
    ),
    "fairbfl/bfl/semi_sync": (
        "03b0902001cd21af279c112e8aece0f2ed86c0a2a95f9778dd7902c4709bcaff",
        ["3cb2dfbe0f4bf072", "991eea533a21f5b0", "5f6ddd752eb2319c"],
    ),
    "fairbfl/bfl/semi_sync/deadline-before-any-upload": (
        "59d779cd86d5de4e918186d02ebd2cf5e98ecf217af4cabca5a4c5f1b8807b8a",
        ["d5a85739c491cf04", "18bf1c0ccdae1289", "ce434036b50e291c"],
    ),
    "fairbfl/bfl/sync": (
        "fe7e16b9d996bd540cf5dca89341869e128284b57ce5eeb2cd90d7151e7f1f4f",
        ["71d92da859a67838", "82442336cfe925b8", "f277eed6b5a931df"],
    ),
    "fairbfl/chain_only/async": (
        "005ae3f021f456e96cf7c11e319c8519556d5c9d521eb93dab5858e599fc7123",
        ["8e3c5043b89c121d", "71475a0cc4a16a7d", "900804cf34971a2e"],
    ),
    "fairbfl/chain_only/semi_sync": (
        "f55f807aacdc611f6780d32a1f4d9d4b6262aa58524a956c6fecd79b909bcf3c",
        ["7e04c3b3b4967e89", "050e8782478c95e9", "54a9ece07d5fbf76"],
    ),
    "fairbfl/chain_only/sync": (
        "a10f8140b22a7d6bf2289566b6c2454aee4e5c481d1c3f136195ff2f67bf3c26",
        ["d59e81f6bcf5c989", "1b3d074705b6b851", "c55225a8b771fd70"],
    ),
    "fairbfl/fl_only/async": (
        "7811719b3a30d67f60127763e8bdcb1a4fa2d6d371b956f9a26377db25eb81e5",
        ["52f81ae51c3605f0", "91406159f78f03af", "ea1c8d9af35ee12c"],
    ),
    "fairbfl/fl_only/semi_sync": (
        "fbc6837c11d0d71f4cd6094b81bc32ae5173a2482e37e2f5c81835a11939f09a",
        ["138989daa0f4a0d1", "bf0d415341695b2f", "dd1f166b441d6dbd"],
    ),
    "fairbfl/fl_only/sync": (
        "35712209c459de89ed879227bfdb470a682ac2f4329fb4c054c37302a724215e",
        ["abfb222475e76fcd", "bf2aebc26cce344d", "74a004a7aedabc3a"],
    ),
    "fairbfl/ring/partition+churn": (
        "b797e741149af9cdc21f38ea779fdff9d212be8ad66d10c3f0fde0e010adcd39",
        ["a5c0c83ee9859fdf", "d93fddfb9cdf74bb", "5245423dcd8654ff", "fb0c87ca65a4bdf3"],
    ),
}


def test_every_cell_is_pinned():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_reproduces_its_golden_values(name):
    digest, rounds = _observe(name)
    expected_digest, expected_rounds = GOLDEN[name]
    assert rounds == expected_rounds
    assert digest == expected_digest
