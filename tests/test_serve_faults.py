"""Fault injection against the experiment service.

What must survive here:

* **worker death** — a job whose child process is SIGKILLed mid-run is
  retried (and completes) or reported ``failed`` with the exit signal in
  its error; it is *never* left hanging in ``running``;
* **bad input** — malformed JSON, an unknown system, and a
  capability-invalid axis each answer a 4xx whose body carries the
  registry's actionable message, and the server stays healthy afterwards;
* **cancellation** — queued jobs cancel immediately, running jobs stop
  cooperatively, finished jobs answer 409;
* **restart recovery** — a fresh server over the same store serves the old
  server's results read-through, computing nothing.

Process-isolation tests use the spawn context, so they are safe under
pytest's importable ``__main__``.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.serve.client import ServeClient, ServeClientError

pytestmark = pytest.mark.serve

WATCHDOG_S = 60.0


def _spec_mapping(**overrides) -> dict:
    mapping = {
        "name": "fault",
        "system": "fedavg",
        "num_clients": 4,
        "num_samples": 200,
        "num_rounds": 2,
        "seed": 0,
    }
    mapping.update(overrides)
    return mapping


def _wait_for_running(client: ServeClient, job_id: str, *, need_pid: bool = False) -> dict:
    """Poll until the job is running (and, if asked, has a child pid)."""
    deadline = time.monotonic() + WATCHDOG_S
    while time.monotonic() < deadline:
        payload = client.status(job_id)
        if payload["state"] == "running" and (not need_pid or payload["worker_pid"]):
            return payload
        if payload["state"] not in ("queued", "running"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached running state")


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    """POST raw bytes (for malformed payloads the client would never send)."""
    request = urllib.request.Request(
        url, data=body, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestWorkerDeath:
    def test_killed_worker_process_is_retried_and_job_completes(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store", isolation="process") as server:
            client = ServeClient(server.url)
            job = client.submit(_spec_mapping(name="killme", num_rounds=40))[0]
            running = _wait_for_running(client, job["job_id"], need_pid=True)
            os.kill(running["worker_pid"], signal.SIGKILL)
            final = client.wait(job["job_id"], timeout=WATCHDOG_S)
            assert final["state"] == "done"
            assert final["attempts"] == 2  # the kill consumed the first attempt
            # The retried run landed in the store and serves normally.
            assert client.result(final["result_key"])["key"] == final["spec_key"]

    def test_killed_worker_with_no_retries_fails_with_exit_signal(self, tmp_path):
        with api.serve(
            workers=1, store=tmp_path / "store", isolation="process", max_retries=0
        ) as server:
            client = ServeClient(server.url)
            job = client.submit(_spec_mapping(name="killme", num_rounds=40))[0]
            running = _wait_for_running(client, job["job_id"], need_pid=True)
            os.kill(running["worker_pid"], signal.SIGKILL)
            final = client.wait(job["job_id"], timeout=WATCHDOG_S)
            assert final["state"] == "failed"
            assert "died mid-job" in final["error"]
            assert "1 attempt" in final["error"]
            # The server is still healthy and computes the next job fine.
            history = client.run(_spec_mapping(name="after"), timeout=WATCHDOG_S)
            assert len(history.accuracies) == 2


class TestBadInput:
    @pytest.fixture()
    def server(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store") as srv:
            yield srv

    def test_malformed_json_answers_400(self, server):
        status, body = _post_raw(server.url + "/v1/runs", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_empty_body_answers_400(self, server):
        status, body = _post_raw(server.url + "/v1/runs", b"")
        assert status == 400
        assert "empty" in body["error"]

    def test_unknown_system_answers_4xx_with_registry_message(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(_spec_mapping(system="nope"))
        assert excinfo.value.status == 422
        assert "unknown system 'nope'" in str(excinfo.value)
        assert "registered systems" in str(excinfo.value)  # the actionable part

    def test_capability_invalid_axis_answers_4xx_with_supporting_systems(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(_spec_mapping(system="fedavg", round_mode="async"))
        assert excinfo.value.status == 422
        message = str(excinfo.value)
        assert "does not support round_mode='async'" in message
        assert "systems supporting it" in message

    @pytest.mark.parametrize(
        "body, named",
        [
            (b'{"base": [1], "matrix": {"seed": [0]}}', "base"),
            (b'{"base": "x", "matrix": {"seed": [0]}}', "base"),
            (b'{"system": "blockchain", "noise_std": NaN}', "noise_std"),
            (b'{"system": "fedavg", "model_name": "resnet"}', "model_name"),
            (b'{"system": "fedavg", "participation": 0}', "participation"),
        ],
    )
    def test_invalid_scenario_is_refused_422_not_accepted_or_crashed(self, server, body, named):
        """Each of these answered 500 (raw exception) or 202 (accepted, then
        failed inside the worker) before the rules were declared per field."""
        status, payload = _post_raw(server.url + "/v1/runs", body)
        assert status == 422
        assert named in payload["error"]

    def test_non_object_document_answers_400(self, server):
        status, body = _post_raw(server.url + "/v1/runs", b'["not", "a", "mapping"]')
        assert status == 400
        assert "JSON object" in body["error"]

    def test_unknown_endpoint_answers_404(self, server):
        status, body = _post_raw(server.url + "/v1/bogus", b"{}")
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_bad_result_key_answers_400_and_missing_key_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeClientError) as excinfo:
            client.result("nope")
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.result("0" * 64)
        assert excinfo.value.status == 404

    def test_server_stays_healthy_after_bad_input(self, server):
        client = ServeClient(server.url)
        for _ in range(3):
            with pytest.raises(ServeClientError):
                client.submit(_spec_mapping(system="nope"))
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"]["alive"] == health["workers"]["total"]
        history = client.run(_spec_mapping(), timeout=WATCHDOG_S)
        assert len(history.accuracies) == 2


class TestCancellation:
    def test_cancel_running_job_stops_it(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store") as server:
            client = ServeClient(server.url)
            job = client.submit(_spec_mapping(name="slow", num_rounds=60))[0]
            _wait_for_running(client, job["job_id"])
            outcome = client.cancel(job["job_id"])
            assert outcome["cancel"] == "cancelling"
            final = client.wait(job["job_id"], timeout=WATCHDOG_S)
            assert final["state"] == "cancelled"
            # A cancelled run never reached the store.
            assert client.health()["engine"]["runs_computed"] == 0

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        # One worker pinned on a long job leaves the second submission queued.
        with api.serve(workers=1, store=tmp_path / "store") as server:
            client = ServeClient(server.url)
            blocker = client.submit(_spec_mapping(name="blocker", num_rounds=60))[0]
            queued = client.submit(_spec_mapping(name="queued", seed=1, num_rounds=60))[0]
            assert queued["state"] == "queued"
            outcome = client.cancel(queued["job_id"])
            assert outcome["cancel"] == "cancelled"
            assert client.status(queued["job_id"])["state"] == "cancelled"
            client.cancel(blocker["job_id"])
            client.wait(blocker["job_id"], timeout=WATCHDOG_S)

    def test_cancel_finished_job_answers_409(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store") as server:
            client = ServeClient(server.url)
            job = client.submit(_spec_mapping())[0]
            client.wait(job["job_id"], timeout=WATCHDOG_S)
            with pytest.raises(ServeClientError) as excinfo:
                client.cancel(job["job_id"])
            assert excinfo.value.status == 409
            assert "already finished" in str(excinfo.value)

    def test_cancel_unknown_job_answers_404(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store") as server:
            with pytest.raises(ServeClientError) as excinfo:
                ServeClient(server.url).cancel("job-999999")
            assert excinfo.value.status == 404


class TestRestartRecovery:
    def test_new_server_over_same_store_serves_results_without_computing(self, tmp_path):
        store_root = tmp_path / "store"
        spec = _spec_mapping(name="durable")
        with api.serve(workers=1, store=store_root) as first:
            before = ServeClient(first.url).run(spec, timeout=WATCHDOG_S)
            assert ServeClient(first.url).health()["engine"]["runs_computed"] == 1

        with api.serve(workers=1, store=store_root) as second:
            client = ServeClient(second.url)
            job = client.submit(spec)[0]
            assert job["state"] == "done"
            assert job["cached"] is True
            after = client.history(job["result_key"])
            assert tuple(after.accuracies) == tuple(before.accuracies)
            assert tuple(after.delays) == tuple(before.delays)
            health = client.health()
            assert health["engine"]["runs_computed"] == 0
            assert health["readthrough_hits"] == 1
