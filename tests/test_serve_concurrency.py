"""Stress tests for the experiment service under concurrent submission.

The serving stack's central promises, exercised with real threads against a
real (ephemeral-port) HTTP server:

* **exactly-once computation** — 16 clients submitting overlapping identical
  and distinct scenarios trigger exactly one computation per distinct
  ``spec_key``; the rest collapse single-flight onto the in-flight job or
  read through the store;
* **bit-identical results** — a history fetched over the wire equals the
  history :func:`repro.api.run` computes locally for the same spec, field
  for field;
* **liveness** — the queue drains under a watchdog; no submission pattern
  wedges a worker;
* **one sweep, two transports** — ``repro sweep`` prints the same table
  whether it runs locally or as a ``--server`` thin client, sweep-wide
  overrides and their capability gating included.

Everything runs against a tmp-path store, so the suite neither reads nor
pollutes ``results/store/``.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.crypto.keystore import derive_key_pair
from repro.serve.client import ServeClient
from repro.store.records import history_to_payload

pytestmark = pytest.mark.serve

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Watchdog for every blocking wait in this module (the ISSUE's liveness bar).
WATCHDOG_S = 60.0


def _spec(seed: int) -> api.ScenarioSpec:
    """A tiny distinct-per-seed scenario (fast enough for 16x submission)."""
    return api.ScenarioSpec.from_mapping(
        {
            "name": f"stress-{seed}",
            "system": "fedavg",
            "num_clients": 4,
            "num_samples": 200,
            "num_rounds": 2,
            "seed": seed,
        }
    )


def _payload(history) -> dict:
    """A history's canonical payload without its presentation label."""
    payload = history_to_payload(history)
    payload.pop("label", None)
    return payload


def _history_fields(history) -> tuple:
    """The full per-round payload of a history, for exact comparison."""
    return (
        tuple(history.accuracies),
        tuple(history.delays),
        tuple(history.elapsed_times),
    )


@pytest.fixture()
def server(tmp_path):
    srv = api.serve(workers=4, store=tmp_path / "store")
    try:
        yield srv
    finally:
        srv.close()


class TestConcurrentSubmission:
    def test_sixteen_threads_compute_each_distinct_spec_exactly_once(self, server):
        """4 distinct specs x 4 submitters each: 16 threads, 4 computations."""
        distinct = [_spec(seed) for seed in range(4)]
        barrier = threading.Barrier(16)
        outcomes: dict[int, tuple] = {}
        errors: list[BaseException] = []

        def submitter(index: int, spec: api.ScenarioSpec) -> None:
            client = ServeClient(server.url)
            try:
                barrier.wait(timeout=WATCHDOG_S)
                history = client.run(spec, timeout=WATCHDOG_S)
                outcomes[index] = (spec.seed, _history_fields(history))
            except BaseException as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(i, distinct[i % 4]), daemon=True)
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WATCHDOG_S)
        assert not any(t.is_alive() for t in threads), "a submitter hung past the watchdog"
        assert not errors, f"submitters failed: {errors}"
        assert len(outcomes) == 16

        health = ServeClient(server.url).health()
        # Exactly one computation per distinct spec; every duplicate was
        # absorbed by single-flight dedup or store read-through.
        assert health["engine"]["runs_computed"] == 4
        assert health["singleflight_hits"] + health["readthrough_hits"] == 12
        assert health["queue_depth"] == 0
        assert health["jobs"]["running"] == 0
        assert health["jobs"]["failed"] == 0

        # All 4 submitters of one spec saw the same bytes-for-bytes history.
        by_seed: dict[int, set] = {}
        for seed, fields in outcomes.values():
            by_seed.setdefault(seed, set()).add(fields)
        assert all(len(variants) == 1 for variants in by_seed.values())

    def test_served_history_is_bit_identical_to_local_run(self, server):
        spec = _spec(99)
        remote = ServeClient(server.url).run(spec, timeout=WATCHDOG_S)
        local = api.run(spec)
        assert _history_fields(remote) == _history_fields(local)

    def test_resubmitting_a_stored_spec_reads_through_without_computing(self, server):
        spec = _spec(7)
        client = ServeClient(server.url)
        client.run(spec, timeout=WATCHDOG_S)
        computed_before = client.health()["engine"]["runs_computed"]

        job = client.submit(spec)[0]
        assert job["state"] == "done"
        assert job["cached"] is True
        health = client.health()
        assert health["engine"]["runs_computed"] == computed_before
        assert health["readthrough_hits"] >= 1

    def test_burst_of_distinct_specs_drains_under_watchdog(self, server):
        client = ServeClient(server.url)
        jobs = [client.submit(_spec(100 + i))[0] for i in range(8)]
        finals = [client.wait(j["job_id"], timeout=WATCHDOG_S) for j in jobs]
        assert all(f["state"] == "done" for f in finals)
        assert {f["spec_key"] for f in finals} == {j["spec_key"] for j in jobs}
        health = client.health()
        assert health["queue_depth"] == 0
        assert health["jobs"]["done"] == 8


class TestServedKeyDerivation:
    def test_jobs_on_unseen_seeds_derive_each_entity_once(self, tmp_path):
        """Count guard: K signing jobs on K seeds derive one population, not K."""
        specs = [
            api.ScenarioSpec.from_mapping(
                {
                    "name": f"keys-{seed}",
                    "system": "fairbfl",
                    "num_clients": 4,
                    "num_samples": 160,
                    "num_rounds": 1,
                    "miners": 2,
                    "seed": seed,
                }
            )
            for seed in (501, 502, 503, 504)
        ]
        assert all(spec.verify_signatures for spec in specs)
        derive_key_pair.cache_clear()
        with api.serve(workers=2, isolation="thread", store=tmp_path / "store") as server:
            client = ServeClient(server.url)
            jobs = [client.submit(spec)[0] for spec in specs]
            finals = [client.wait(job["job_id"], timeout=WATCHDOG_S) for job in jobs]
            assert all(final["state"] == "done" for final in finals)
            remote = [client.run(spec, timeout=WATCHDOG_S) for spec in specs]
        population = specs[0].num_clients + specs[0].miners
        assert derive_key_pair.cache_info().misses == population
        for spec, history in zip(specs, remote):
            assert _payload(history) == _payload(api.run(spec))


MIXED_SWEEP = """
name = "mixed"
[base]
num_clients = 6
num_samples = 300
num_rounds = 2
[matrix]
system = ["fairbfl", "fedavg", "blockchain"]
"""


class TestRemoteSweepPrintsTheLocalTable:
    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("scenarios/example_sweep.toml", []),
            ("scenarios/example_sweep.toml", ["--round-mode", "semi_sync", "--defense", "median"]),
            # Capability gating: fedavg keeps only the defense, blockchain neither.
            (None, ["--round-mode", "async", "--defense", "trimmed_mean"]),
        ],
    )
    def test_rows_and_columns_match(self, server, tmp_path, capsys, scenario, overrides):
        if scenario is None:
            path = tmp_path / "mixed.toml"
            path.write_text(MIXED_SWEEP, encoding="utf-8")
        else:
            path = REPO_ROOT / scenario
        command = ["sweep", "--scenario", str(path), *overrides]

        assert main([*command, "--no-cache"]) == 0
        local = capsys.readouterr().out.splitlines()
        assert main([*command, "--server", server.url]) == 0
        remote = capsys.readouterr().out.splitlines()

        assert local[0].startswith("Scenario sweep (") and remote[0].endswith(", remote)")
        assert remote[-1].startswith(f"server {server.url}: ")
        # Title and its underline aside, the remote table is the local one.
        assert remote[2:-1] == local[2:]
        assert len(local) > 4
