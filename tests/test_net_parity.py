"""Migration parity pin: ``topology="global"`` reproduces history bit-identically.

The gossip substrate must be a strict superset of the legacy single-network
path: a scenario that does not engage the net axes (``topology="global"``,
the default) has to produce byte-for-byte the same training history as
before the substrate existed.  Two pins enforce that:

1. **Golden replay** — the FAIR-BFL run records pinned in
   ``tests/golden_runs.json`` (``sync``/``semi_sync``/``async`` and an
   attacked, defended discard run) were computed by an earlier release;
   re-running their specs through today's code must reproduce every pinned
   history payload exactly.
2. **No substrate on the global path** — a ``global`` trainer builds no
   :class:`~repro.net.substrate.GossipSubstrate`, draws nothing from its
   RNG streams, and emits no ``extras["net"]`` block.
3. **One settlement path** — an unsplit gossip run (one reachability
   component every round) settles through the same code as the ``global``
   committee, so its history is the ``global`` history plus the
   ``extras["net"]`` block and nothing else.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.store.records import history_to_payload

from paper_spec import paper_spec

pytestmark = pytest.mark.net

#: ``[{"spec": mapping, "history": payload}, ...]``, written by an earlier release.
_RECORDS = json.loads(
    (Path(__file__).resolve().parent / "golden_runs.json").read_text(encoding="utf-8")
)


class TestGoldenReplay:
    @pytest.mark.parametrize("stored", _RECORDS, ids=[r["spec"]["name"] for r in _RECORDS])
    def test_stored_history_reproduced_bit_identically(self, stored):
        spec = ScenarioSpec.from_mapping(stored["spec"])
        assert spec.topology == "global"
        assert (spec.partition, spec.churn) == ("none", "none")
        history = ExperimentEngine().run(spec)
        replayed = json.loads(json.dumps(history_to_payload(history), sort_keys=True))
        assert replayed == stored["history"]


class TestGlobalPathBuildsNoSubstrate:
    def test_trainer_has_no_net(self):
        dataset = build_federated_dataset(
            num_clients=4, num_samples=200, scheme="iid", seed=3, noise_std=0.3
        )
        spec = paper_spec(num_rounds=1, participation=0.5, seed=3)
        assert spec.topology == "global"
        trainer = FairBFLTrainer(dataset, spec)
        assert trainer.net is None
        history = trainer.run()
        assert all("net" not in record.extras for record in history.rounds)

    def test_explicit_global_is_the_default_spec(self):
        bare = ScenarioSpec.from_mapping({"system": "fairbfl"})
        explicit = ScenarioSpec.from_mapping(
            {"system": "fairbfl", "topology": "global", "partition": "none", "churn": "none"}
        )
        assert bare.canonical_mapping() == explicit.canonical_mapping()


class TestOneComponentEqualsGlobal:
    """Guards the single settlement path: one component == the whole committee."""

    @pytest.mark.parametrize("topology", ["full", "ring", "random_k"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"system": "fairbfl"},
            {"system": "fairbfl-discard", "attacks": True, "defense": "norm_clip+multi_krum"},
            {"system": "fairbfl", "mode": "chain_only"},
        ],
        ids=["fairbfl", "discard-attacked-defended", "chain_only"],
    )
    def test_unsplit_gossip_history_is_the_global_history(self, topology, overrides):
        base = ScenarioSpec(
            name="fold", num_clients=12, num_samples=480, num_rounds=4, miners=3, seed=5
        ).with_overrides(**overrides)
        gossip = base.with_overrides(topology=topology)
        assert (gossip.partition, gossip.churn) == ("none", "none")
        payload = history_to_payload(ExperimentEngine().run(gossip))
        for record in payload["rounds"]:
            assert len(record["extras"].pop("net")["components"]) == 1
        assert payload == history_to_payload(ExperimentEngine().run(base))
