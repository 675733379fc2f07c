"""Differential tests pinning the vectorized cohort engine bit-exact.

The cohort backend's contract is not "numerically close" but **byte
identical**: for any capability-valid scenario, running with
``backend="cohort"`` must produce the same :class:`TrainingHistory` — every
round field, every ``extras`` diagnostic, every reward — as the serial
per-client path, because both consume the same per-client RNG streams in the
same order.  Three groups of tests enforce that:

* **fuzz parity** — :data:`FUZZ_COUNT` randomized small scenarios drawn from
  the registry's capability matrix (system x round_mode x attack x defense x
  seed; an axis is only drawn when the system's
  :class:`~repro.systems.registry.SystemCapabilities` supports it), each run
  serial *and* cohort and compared as canonical JSON bytes;
* **directed parity** — the corners the fuzzer covers only probabilistically:
  FedProx's proximal term with straggler dropping, and the fairbfl discard
  variant's detection accounting (discard/reward bookkeeping must survive
  vectorization, not just accuracies);
* **determinism regressions** — same spec + seed is identical across all four
  executor backends (and hashes to the same store key, since ``backend`` is a
  non-semantic field); a different seed diverges; and the trainer's
  large-population *streaming* fold (forced via a tiny ``STREAM_THRESHOLD``)
  stays deterministic and numerically equivalent to the materializing path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks.gradient_attacks import ATTACKS
from repro.fl.cohort import EXECUTOR_BACKENDS
from repro.fl.fedavg import FedAvgTrainer
from repro.fl.robust import DEFENSES
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.sim.rounds import ROUND_MODES
from repro.store.keys import spec_key
from repro.store.records import history_to_payload
from repro.systems.registry import get_system, systems_supporting

pytestmark = pytest.mark.cohort

#: Number of randomized scenarios in the fuzz sweep (ISSUE floor: >= 25).
FUZZ_COUNT = 28

#: Systems whose registration declares the cohort execution capability.
COHORT_SYSTEMS = systems_supporting("cohort")


def canonical_result(result) -> str:
    """A byte-comparable rendering of a run: its full history.

    The history label is excluded — it carries the spec *name* (presentation
    only); everything else, including per-round ``extras`` and reward maps,
    must match byte-for-byte between backends.
    """
    payload = history_to_payload(result.history)
    payload.pop("label", None)
    return json.dumps(payload, sort_keys=True)


def fuzz_spec(index: int) -> ScenarioSpec:
    """Deterministically derive the ``index``-th randomized scenario.

    Systems rotate so every cohort-capable registration appears ~equally
    often; each optional axis (round mode, attack, defense, FedProx knobs) is
    drawn only when the system's capabilities declare it — the same validity
    rule `check_spec_axes` enforces — so every generated spec validates.
    """
    rng = np.random.default_rng(9000 + index)
    system = COHORT_SYSTEMS[index % len(COHORT_SYSTEMS)]
    caps = get_system(system).capabilities
    kwargs: dict = {
        "name": f"cohort-fuzz-{index}",
        "system": system,
        "seed": int(rng.integers(0, 2**16)),
        "num_clients": int(rng.integers(8, 13)),
        "num_samples": int(rng.integers(240, 361)),
        "num_rounds": int(rng.integers(2, 4)),
        "participation": float(rng.choice([0.5, 0.75, 1.0])),
        "scheme": str(rng.choice(["iid", "shard", "dirichlet"])),
        "model_name": "mlp" if rng.random() < 0.25 else "logreg",
        "hidden_sizes": (8,),
        "epochs": int(rng.integers(1, 3)),
        "batch_size": int(rng.choice([5, 8, 10])),
        "learning_rate": float(rng.choice([0.02, 0.05, 0.1])),
    }
    if rng.random() < 0.25:
        # Archetype-shard replication (the memory-bounding trick the scaling
        # bench relies on) must also preserve parity.
        kwargs["distinct_shards"] = int(rng.integers(2, kwargs["num_clients"]))
    if caps.round_modes:
        kwargs["round_mode"] = str(rng.choice(ROUND_MODES))
    if caps.attacks and rng.random() < 0.5:
        kwargs["attacks"] = True
        kwargs["attack_name"] = str(rng.choice([a for a in ATTACKS if a != "none"]))
    if caps.defenses and rng.random() < 0.5:
        kwargs["defense"] = str(rng.choice([d for d in DEFENSES if d != "none"]))
    if system == "fedprox":
        kwargs["proximal_mu"] = float(rng.choice([0.0, 0.05, 0.1]))
        kwargs["drop_percent"] = float(rng.choice([0.0, 0.2]))
    return ScenarioSpec(**kwargs).validate()


@pytest.fixture(scope="module")
def engine() -> ExperimentEngine:
    """One engine for the whole module so datasets are memoised across cases."""
    return ExperimentEngine()


class TestFuzzParity:
    """Randomized capability-valid scenarios: cohort == serial, byte for byte."""

    def test_generator_covers_the_matrix(self):
        specs = [fuzz_spec(i) for i in range(FUZZ_COUNT)]
        assert len(specs) >= 25
        assert {s.system for s in specs} == set(COHORT_SYSTEMS)
        assert {s.round_mode for s in specs} == set(ROUND_MODES)
        assert any(s.attacks for s in specs)
        assert any(s.defense != "none" for s in specs)
        assert any(s.system == "fedprox" and s.proximal_mu > 0 for s in specs)
        assert any(s.distinct_shards > 0 for s in specs)
        # Determinism of the generator itself: the sweep is reproducible.
        assert [spec_key(s) for s in specs] == [
            spec_key(fuzz_spec(i)) for i in range(FUZZ_COUNT)
        ]

    @pytest.mark.parametrize("index", range(FUZZ_COUNT))
    def test_cohort_matches_serial(self, engine, index):
        spec = fuzz_spec(index)
        serial = engine.run_result(spec.with_overrides(backend="serial"))
        cohort = engine.run_result(spec.with_overrides(backend="cohort"))
        assert canonical_result(cohort) == canonical_result(serial), (
            f"cohort run diverged from serial for fuzz spec {index}: "
            f"{spec.to_mapping()}"
        )


class TestDirectedParity:
    """Corners the fuzzer hits only probabilistically, pinned explicitly."""

    def test_fedprox_proximal_term_and_dropping(self, engine):
        spec = ScenarioSpec(
            name="cohort-fedprox",
            system="fedprox",
            seed=5,
            num_clients=10,
            num_samples=300,
            num_rounds=2,
            participation=1.0,
            scheme="dirichlet",
            model_name="logreg",
            epochs=2,
            batch_size=10,
            learning_rate=0.05,
            proximal_mu=0.1,
            drop_percent=0.2,
        ).validate()
        serial = engine.run_result(spec.with_overrides(backend="serial"))
        cohort = engine.run_result(spec.with_overrides(backend="cohort"))
        assert canonical_result(cohort) == canonical_result(serial)
        # The straggler drop actually engaged (dropped updates change the
        # aggregate), so the parity above covers the dropping code path too.
        no_drop = engine.run_result(
            spec.with_overrides(backend="serial", drop_percent=0.0)
        )
        assert canonical_result(no_drop) != canonical_result(serial)

    def test_fairbfl_detection_accounting(self, engine):
        spec = ScenarioSpec(
            name="cohort-fairbfl-discard",
            system="fairbfl-discard",
            seed=11,
            num_clients=10,
            num_samples=300,
            num_rounds=3,
            participation=0.8,
            scheme="iid",
            model_name="logreg",
            epochs=1,
            batch_size=10,
            learning_rate=0.05,
            attacks=True,
            attack_name="sign_flip",
        ).validate()
        serial = engine.run_result(spec.with_overrides(backend="serial"))
        cohort = engine.run_result(spec.with_overrides(backend="cohort"))
        assert canonical_result(cohort) == canonical_result(serial)
        # Detection accounting is exercised, not vacuously equal: attackers
        # were scheduled and the discard strategy produced reward/discard
        # bookkeeping for the parity check to compare.
        assert any(r.attackers for r in serial.history.rounds)
        assert any(r.rewards for r in serial.history.rounds)
        serial_discards = [list(r.discarded) for r in serial.history.rounds]
        cohort_discards = [list(r.discarded) for r in cohort.history.rounds]
        assert cohort_discards == serial_discards


class TestSeedDeterminism:
    """Same spec + seed => identical everywhere; different seed => different."""

    BASE = dict(
        system="fairbfl",
        num_clients=8,
        num_samples=300,
        num_rounds=2,
        participation=0.75,
        scheme="dirichlet",
        model_name="logreg",
        epochs=1,
        batch_size=10,
        learning_rate=0.05,
        attacks=True,
        attack_name="scaling",
    )

    def _spec(self, seed: int, backend: str = "serial") -> ScenarioSpec:
        return ScenarioSpec(
            name="determinism", seed=seed, backend=backend, **self.BASE
        ).validate()

    def test_identical_across_all_backends(self, engine):
        reference = canonical_result(engine.run_result(self._spec(7)))
        for backend in EXECUTOR_BACKENDS:
            result = engine.run_result(self._spec(7, backend))
            assert canonical_result(result) == reference, (
                f"backend {backend!r} diverged from serial for the same seed"
            )

    def test_spec_key_invariant_to_backend(self):
        keys = {spec_key(self._spec(7, backend)) for backend in EXECUTOR_BACKENDS}
        assert len(keys) == 1, (
            "backend is a non-semantic field: all execution paths must share "
            f"one store key, got {keys}"
        )

    def test_repeated_run_is_identical(self, engine):
        first = canonical_result(engine.run_result(self._spec(7, "cohort")))
        second = canonical_result(engine.run_result(self._spec(7, "cohort")))
        assert first == second

    def test_different_seed_diverges(self, engine):
        base = canonical_result(engine.run_result(self._spec(7)))
        other = canonical_result(engine.run_result(self._spec(8)))
        assert base != other
        assert spec_key(self._spec(7)) != spec_key(self._spec(8))


class TestStreamingFold:
    """The bounded-memory streaming path: deterministic and equivalent.

    Above ``FedAvgTrainer.STREAM_THRESHOLD`` selected clients, cohort rounds
    fold block aggregates into a running weighted sum instead of
    materialising every ``ClientUpdate``.  The fold reorders floating-point
    summation, so the contract is numerical equivalence (within float64
    round-off) plus strict run-to-run determinism — not byte parity with the
    materializing path.  Forcing a tiny threshold exercises it at test scale.
    """

    def _spec(self, backend: str, system: str = "fedavg", **overrides) -> ScenarioSpec:
        return ScenarioSpec(
            name="streaming",
            system=system,
            seed=3,
            num_clients=12,
            num_samples=360,
            num_rounds=2,
            participation=1.0,
            scheme="dirichlet",
            model_name="logreg",
            epochs=1,
            batch_size=10,
            learning_rate=0.05,
            backend=backend,
            **overrides,
        ).validate()

    def test_streaming_matches_materialized(self, engine, monkeypatch):
        serial = engine.run_result(self._spec("serial"))
        monkeypatch.setattr(FedAvgTrainer, "STREAM_THRESHOLD", 4)
        streamed = engine.run_result(self._spec("cohort"))
        # The streaming path really engaged and accounted for every client.
        stream_stats = [r.extras.get("cohort_stream") for r in streamed.history.rounds]
        assert all(stats is not None for stats in stream_stats)
        assert all(stats["clients"] == 12 for stats in stream_stats)
        for got, want in zip(streamed.history.rounds, serial.history.rounds):
            assert list(got.participants) == list(want.participants)
            assert got.accuracy == pytest.approx(want.accuracy, abs=1e-9)
            assert got.train_loss == pytest.approx(want.train_loss, rel=1e-9)

    def test_streaming_is_deterministic(self, engine, monkeypatch):
        monkeypatch.setattr(FedAvgTrainer, "STREAM_THRESHOLD", 4)
        first = canonical_result(engine.run_result(self._spec("cohort")))
        second = canonical_result(engine.run_result(self._spec("cohort")))
        assert first == second

    def _first_round_global(
        self, monkeypatch, threshold, poisoned, system="fedavg", **overrides
    ):
        """The global parameters after one cohort round, with the clients in
        ``poisoned`` trained on NaN images (a fresh dataset: the shared
        engine's memo stays clean)."""
        spec = self._spec("cohort", system, **overrides)
        dataset = ExperimentEngine().dataset_for(spec)
        for cid in poisoned:
            dataset.clients[cid].images = np.full_like(dataset.clients[cid].images, np.nan)
        monkeypatch.setattr(FedAvgTrainer, "STREAM_THRESHOLD", threshold)
        trainer = get_system(system).build(spec, dataset).trainer
        try:
            before = trainer.server.global_parameters.copy()
            record = trainer.run_round(0)
            return before, trainer.server.global_parameters.copy(), record
        finally:
            trainer.close()

    def test_streaming_screens_a_non_finite_update(self, monkeypatch):
        _, streamed, record = self._first_round_global(monkeypatch, 4, poisoned=[5])
        _, materialised, reference = self._first_round_global(monkeypatch, 10**9, poisoned=[5])
        assert record.extras["cohort_stream"]["clients"] == 12
        assert "cohort_stream" not in reference.extras
        assert set(record.extras) == set(reference.extras) | {"cohort_stream"}
        assert np.isfinite(streamed).all()
        np.testing.assert_allclose(streamed, materialised, rtol=0.0, atol=1e-12)

    def test_fedprox_streaming_screens_a_non_finite_update(self, monkeypatch):
        prox = dict(system="fedprox", proximal_mu=0.1)
        _, streamed, record = self._first_round_global(monkeypatch, 4, [2, 7], **prox)
        _, materialised, _ = self._first_round_global(monkeypatch, 10**9, [2, 7], **prox)
        assert record.extras["cohort_stream"]["clients"] == 12
        assert np.isfinite(streamed).all()
        np.testing.assert_allclose(streamed, materialised, rtol=0.0, atol=1e-12)

    def test_streaming_without_survivors_keeps_the_global(self, monkeypatch):
        before, after, record = self._first_round_global(monkeypatch, 4, poisoned=range(12))
        assert "cohort_stream" in record.extras
        np.testing.assert_array_equal(after, before)
