"""Fault injection against the experiment service.

What must survive here:

* **worker death** — a job whose child process is SIGKILLed mid-run is
  retried (and completes) or reported ``failed`` with the exit signal in
  its error; it is *never* left hanging in ``running``;
* **bad input** — malformed JSON, an unknown system, and a
  capability-invalid axis each answer a 4xx whose body carries the
  registry's actionable message, a ``Content-Length`` that is no byte
  count answers 400 and one above ``MAX_BODY_BYTES`` 413, both before
  anything is read, and the server stays healthy afterwards;
* **cancellation** — queued jobs cancel immediately, running jobs stop
  cooperatively, finished jobs answer 409;
* **restart recovery** — a fresh server over the same store serves the old
  server's results read-through, computing nothing.

Process-isolation tests use the spawn context, so they are safe under
pytest's importable ``__main__``.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import signal
import socket
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import api
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import ENDPOINTS, error_payload
from repro.serve import server as serve_server
from repro.serve.server import MAX_BODY_BYTES
from repro.store import records as store_records
from repro.store.records import history_to_payload
from repro.store.runstore import RunStore

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


def _raw(method: str, url: str, body: bytes | None = None) -> tuple[int, dict]:
    """One request with no client in between: (status, decoded JSON body)."""
    request = urllib.request.Request(
        url, data=body, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _post_raw(url: str, body: bytes) -> tuple[int, dict]:
    """POST raw bytes (for malformed payloads the client would never send)."""
    return _raw("POST", url, body)


def _post_declaring(url: str, content_length: str, body: bytes = b"") -> tuple[int, dict]:
    """POST /v1/runs over a bare socket with a hand-written ``Content-Length``.

    The socket times out after 3 s, so a server that waits for bytes the
    header promised (or for the peer to close) fails the test instead of
    hanging it.
    """
    address = urllib.parse.urlsplit(url)
    with socket.create_connection((address.hostname, address.port), timeout=3.0) as sock:
        sock.sendall(
            b"POST /v1/runs HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("latin-1")
            + body
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read().decode("utf-8"))


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

    def test_access_lines_reach_the_serve_logger_at_debug_only(self, server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            assert _raw("GET", server.url + "/v1/healthz")[0] == 200
        assert caplog.records == []  # off by default: nothing is formatted or emitted
        with caplog.at_level(logging.DEBUG, logger="repro.serve"):
            assert _raw("GET", server.url + "/v1/healthz")[0] == 200
            assert _post_raw(server.url + "/v1/runs", b"{not json")[0] == 400
        lines = [r.getMessage() for r in caplog.records if r.name == "repro.serve"]
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert '"GET /v1/healthz HTTP/1.1" 200' in lines[0]
        assert '"POST /v1/runs HTTP/1.1" 400' in lines[1]

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
            (b'{"system": "fairbfl", "dbscan_eps": -1}', "dbscan_eps"),
        ],
    )
    def test_invalid_scenario_is_refused_422_not_accepted_or_crashed(self, server, body, named):
        """Each of these answered 500 (raw exception) or 202 (accepted, then
        failed inside the worker) before the rules were declared per field;
        ``dbscan_eps`` had its rule only in ``DBSCAN`` until it got one."""
        status, payload = _post_raw(server.url + "/v1/runs", body)
        assert status == 422
        assert named in payload["error"]
        health = ServeClient(server.url).health()
        assert health["queue_depth"] == 0
        assert set(health["jobs"].values()) == {0}

    @pytest.mark.parametrize("declared", ["-1", "abc", "1e3", "+5", "\u00b2"])
    def test_a_content_length_that_is_no_byte_count_answers_400_at_once(self, server, declared):
        """``-1`` used to pin the handler thread (``rfile.read(-1)`` reads until
        the peer closes) and ``abc`` to answer 500 ``ValueError``."""
        status, body = _post_declaring(server.url, declared)
        assert status == 400
        assert "Content-Length" in body["error"]
        assert ServeClient(server.url).health()["status"] == "ok"

    @pytest.mark.parametrize("declared", [10**12, 10**8, MAX_BODY_BYTES + 1])
    def test_an_oversized_content_length_answers_413_before_any_read(self, server, declared):
        """``10**12`` answered 500 (``MemoryError`` from ``rfile.read``), and
        ``10**8`` followed by a 2-byte body got no answer at all."""
        status, body = _post_declaring(server.url, str(declared), b"{}")
        assert status == 413
        assert f"{declared} bytes" in body["error"]
        assert ServeClient(server.url).health()["status"] == "ok"

    def test_a_body_short_of_its_content_length_answers_408_and_closes(
        self, server, monkeypatch
    ):
        """The handler used to wait for the missing bytes forever."""
        monkeypatch.setattr(serve_server, "BODY_DEADLINE_S", 0.2)
        address = urllib.parse.urlsplit(server.url)
        with socket.create_connection((address.hostname, address.port), timeout=3.0) as sock:
            sock.sendall(
                b"POST /v1/runs HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\n"
                b'Content-Length: 100\r\n\r\n{"name": "trunc'
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 408
            assert "did not arrive within 0.2 s" in json.loads(response.read())["error"]
            assert sock.recv(1) == b""  # closed by the server, not left to time out
        assert ServeClient(server.url).health()["status"] == "ok"

    def test_a_keep_alive_connection_idles_past_the_body_deadline(self, server, monkeypatch):
        monkeypatch.setattr(serve_server, "BODY_DEADLINE_S", 0.2)
        address = urllib.parse.urlsplit(server.url)
        connection = http.client.HTTPConnection(address.hostname, address.port, timeout=3.0)
        try:
            for _ in range(2):  # a body read, then an idle gap longer than its deadline
                connection.request("POST", "/v1/jobs/job-999999/cancel", body=b"{}")
                response = connection.getresponse()
                response.read()
                assert response.status == 404
                time.sleep(0.5)
            connection.request("GET", "/v1/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_a_body_arriving_in_pieces_inside_its_deadline_is_accepted(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(serve_server, "BODY_DEADLINE_S", 2.0)
        body = json.dumps(_spec_mapping(name="pieces")).encode("utf-8")
        address = urllib.parse.urlsplit(server.url)
        with socket.create_connection((address.hostname, address.port), timeout=3.0) as sock:
            sock.sendall(
                b"POST /v1/runs HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
                + body[:10]
            )
            time.sleep(0.3)
            sock.sendall(body[10:])
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 202
            assert json.loads(response.read())["jobs"]

    def test_a_body_cut_short_by_a_half_close_answers_400(self, server):
        address = urllib.parse.urlsplit(server.url)
        with socket.create_connection((address.hostname, address.port), timeout=3.0) as sock:
            sock.sendall(
                b"POST /v1/runs HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\n"
                b'Content-Length: 100\r\n\r\n{"name": "trunc'
            )
            sock.shutdown(socket.SHUT_WR)  # no deadline needed: the peer is done sending
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
        assert ServeClient(server.url).health()["status"] == "ok"

    def test_a_well_formed_body_with_a_hand_written_length_is_accepted(self, server):
        body = json.dumps(_spec_mapping(name="declared")).encode("utf-8")
        status, payload = _post_declaring(server.url, str(len(body)), body)
        assert status == 202
        assert payload["jobs"]

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


class TestRouteTable:
    """Server and client both route by ``protocol.ENDPOINTS`` — nothing else."""

    PARAMS = {"job_id": "J-1", "key": "K-1"}

    @pytest.fixture()
    def server(self, tmp_path):
        with api.serve(workers=1, store=tmp_path / "store") as srv:
            # Stub the handlers: the test is about which handler a request
            # reaches and with what, not about what the handler then does.
            # (``result`` answers rendered bytes, so it stays real: its 400 for
            # a malformed key names the key it was handed.)
            for name in set(ENDPOINTS) - {"result"}:
                stub = lambda *args, _n=name: (200, {"handler": _n, "args": list(args)})
                setattr(srv, f"handle_{name}", stub)
            yield srv

    @pytest.mark.parametrize("name", sorted(ENDPOINTS))
    def test_documented_method_reaches_the_named_handler(self, server, name):
        endpoint = ENDPOINTS[name]
        path = endpoint.path.format(**self.PARAMS)
        body = b'{"doc": 1}' if endpoint.method == "POST" else None
        expected_args = [{"doc": 1}] if name == "submit" else [
            self.PARAMS[field] for field in ("job_id", "key") if "{" + field + "}" in endpoint.path
        ]
        expected = (200, {"handler": name, "args": expected_args})
        if name == "result":
            expected = (400, error_payload(
                "malformed result key 'K-1': expected 64 lowercase hex digits "
                "(a repro.api.spec_key content address)", status=400,
            ))
        doubled = path.replace("/", "//")
        for variant in (path, path + "?x=1", path + "/", doubled, doubled + "/?x=1&y=2"):
            assert _raw(endpoint.method, server.url + variant, body) == expected, variant

    @pytest.mark.parametrize("name", sorted(ENDPOINTS))
    def test_the_other_method_answers_404(self, server, name):
        endpoint = ENDPOINTS[name]
        other = "GET" if endpoint.method == "POST" else "POST"
        path = endpoint.path.format(**self.PARAMS)
        status, answer = _raw(other, server.url + path, b"{}" if other == "POST" else None)
        assert status == 404 and answer["status"] == 404
        assert answer["error"] == f"no such endpoint: {other} {path} (see docs/serve.md)"

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/"),
            ("GET", "/v1"),
            ("GET", "/v2/healthz"),
            ("GET", "/v1/healthz/extra"),
            ("GET", "/v1/jobs"),
            ("GET", "/v1/jobs/J-1/cancel/again"),
            ("POST", "/v1/jobs/J-1/stop"),
            ("GET", "/healthz"),
        ],
    )
    def test_unknown_paths_answer_404_with_the_docs_hint(self, server, method, path):
        status, answer = _raw(method, server.url + path, b"{}" if method == "POST" else None)
        assert status == 404
        assert answer["error"] == f"no such endpoint: {method} {path} (see docs/serve.md)"

    def test_client_issues_exactly_the_tables_paths(self):
        client = ServeClient("http://unused.invalid")
        issued = []

        def record(method, path, payload=None):
            issued.append((method, path))
            return {"jobs": []}

        client._request = record
        client.submit({"system": "fedavg"})
        client.status("J-1")
        client.cancel("J-1")
        client.result("K-1")
        client.health()
        order = ("submit", "job_status", "job_cancel", "result", "healthz")
        assert issued == [
            (ENDPOINTS[name].method, ENDPOINTS[name].path.format(**self.PARAMS)) for name in order
        ]
        assert set(order) == set(ENDPOINTS)


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


class TestServedRecord:
    def test_a_stored_record_is_served_as_stored(self, tmp_path, monkeypatch):
        """The record comes back as written: its ``created_at`` (not the time it
        was first served), ``schema_version`` and ``record_kind``; only the
        membership lists its sidecar holds are inlined."""
        monkeypatch.setattr(RunStore, "OFFLOAD_TOTAL_THRESHOLD", 1)
        monkeypatch.setattr(store_records, "OFFLOAD_LIST_THRESHOLD", 1)
        store = RunStore(tmp_path / "store")
        spec = ScenarioSpec.from_mapping(_spec_mapping(name="stored"))
        ExperimentEngine(store=store).run(spec)
        key = store.key_for(spec)
        path = store.path_for(key)
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["arrays"]  # the membership lists live in the sidecar
        stored["created_at"] = "2000-01-01T00:00:00+00:00"
        path.write_text(json.dumps(stored), encoding="utf-8")

        with api.serve(workers=1, store=store) as server:
            served = ServeClient(server.url).result(key)
        assert served["created_at"] == "2000-01-01T00:00:00+00:00"
        assert (served["schema_version"], served["record_kind"]) == (
            stored["schema_version"], stored["record_kind"],
        )
        assert served["history"] == history_to_payload(store.load(key).result.history)
        assert "arrays" not in served
        assert {k: v for k, v in served.items() if k not in ("history", "protocol_version")} == {
            k: v for k, v in stored.items() if k not in ("history", "arrays")
        }
