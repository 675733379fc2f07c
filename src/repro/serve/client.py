"""A thin stdlib client for the experiment service.

:class:`ServeClient` wraps the JSON protocol of :mod:`repro.serve.protocol`
over ``urllib`` so the CLI (``repro run --server URL`` /
``repro sweep --server URL``), :func:`repro.api.submit`, the tests, and the
throughput benchmark all speak to the daemon the same way.  Histories come
back **bit-identical** to a local run: the result endpoint serves the
store's full-fidelity record with every round field inlined, and
:meth:`ServeClient.history` rebuilds it through the same
:func:`repro.store.records.history_from_payload` the store itself uses.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Mapping

from repro.fl.history import TrainingHistory
from repro.runner.scenario import ScenarioSpec
from repro.serve.protocol import ENDPOINTS, TERMINAL_STATES
from repro.store.records import history_from_payload

__all__ = ["ServeClientError", "ServeClient"]


class ServeClientError(RuntimeError):
    """The server answered an error (carries ``status`` and the error body)."""

    def __init__(self, message: str, *, status: int = 0):
        super().__init__(message)
        self.status = int(status)


class JobFailed(ServeClientError):
    """A waited-on job finished as ``failed`` or ``cancelled``."""


class ServeClient:
    """Talk to a running ``repro serve`` daemon.

    Parameters
    ----------
    base_url:
        E.g. ``"http://127.0.0.1:8731"`` (scheme + host + port, no path).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- transport ------------------------------------------------------
    def _request(self, method: str, path: str, payload: Mapping | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except json.JSONDecodeError:
                message = raw or str(exc)
            raise ServeClientError(message, status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServeClientError(
                f"cannot reach experiment server at {self.base_url}: {exc.reason}"
            ) from exc
        except OSError as exc:  # raw socket errors (reset, timeout mid-read)
            raise ServeClientError(
                f"connection to experiment server at {self.base_url} failed: {exc}"
            ) from exc

    def _call(self, name: str, payload: Mapping | None = None, **params: str) -> dict:
        """Request the endpoint ``name`` of the protocol's table, its path parameters filled in."""
        endpoint = ENDPOINTS[name]
        return self._request(endpoint.method, endpoint.path.format(**params), payload)

    # -- protocol verbs -------------------------------------------------
    def submit(self, document: "Mapping | ScenarioSpec") -> list[dict]:
        """Submit a scenario document (or one spec); returns the job payloads."""
        if isinstance(document, ScenarioSpec):
            document = document.to_mapping()
        return list(self._call("submit", dict(document))["jobs"])

    def status(self, job_id: str) -> dict:
        """The current job payload for ``job_id``."""
        return self._call("job_status", job_id=job_id)

    def cancel(self, job_id: str) -> dict:
        """Request cancellation of ``job_id`` (raises 409 via ServeClientError if finished)."""
        return self._call("job_cancel", {}, job_id=job_id)

    def result(self, key: str) -> dict:
        """The full-fidelity run record stored under content ``key``."""
        return self._call("result", key=key)

    def health(self) -> dict:
        """The healthz payload (queue depth, worker liveness, counters)."""
        return self._call("healthz")

    # -- conveniences ---------------------------------------------------
    def wait(self, job_id: str, *, timeout: float = 120.0, poll: float = 0.05) -> dict:
        """Poll ``job_id`` until it reaches a terminal state; returns the payload.

        Raises :class:`ServeClientError` when ``timeout`` elapses first — the
        client-side watchdog the stress tests lean on.
        """
        deadline = time.monotonic() + float(timeout)
        while True:
            payload = self.status(job_id)
            if payload["state"] in TERMINAL_STATES:
                return payload
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} did not finish within {timeout} s "
                    f"(last state: {payload['state']}, "
                    f"{payload['rounds_done']}/{payload['total_rounds']} rounds)"
                )
            time.sleep(poll)

    def collect(self, job_id: str, *, timeout: float = 120.0) -> TrainingHistory:
        """Wait for ``job_id`` and return its history (:class:`JobFailed` unless ``done``)."""
        job = self.wait(job_id, timeout=timeout)
        if job["state"] != "done":
            raise JobFailed(
                f"job {job['job_id']} ({job['name']}) finished as {job['state']}: "
                f"{job.get('error') or 'no error recorded'}"
            )
        return self.history(job["result_key"])

    def history(self, key: str) -> TrainingHistory:
        """The :class:`TrainingHistory` reconstructed from the record at ``key``."""
        record = self.result(key)
        return history_from_payload(record["history"])

    def run(
        self, document: "Mapping | ScenarioSpec", *, timeout: float = 120.0
    ) -> TrainingHistory:
        """Submit one scenario, wait for it, and return its history.

        The remote analogue of :func:`repro.api.run`: identical inputs yield
        a bit-identical history (possibly without computing anything, when
        the server already holds the record).  Raises :class:`JobFailed`
        when the job ends ``failed``/``cancelled``.
        """
        jobs = self.submit(document)
        if len(jobs) != 1:
            raise ServeClientError(
                f"run() submits exactly one scenario, but the document expanded "
                f"to {len(jobs)} jobs; use submit() for batches"
            )
        return self.collect(jobs[0]["job_id"], timeout=timeout)
