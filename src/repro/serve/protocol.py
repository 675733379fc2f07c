"""The HTTP/JSON wire protocol of the experiment service.

One module owns everything both sides of the wire must agree on: the
endpoint table (:data:`ENDPOINTS` — ``tools/check_docs.py`` fails CI when an
endpoint is missing from ``docs/serve.md``), the job lifecycle states
(:data:`JOB_STATES`), the request parsers, and the response payload
builders.  The server (:mod:`repro.serve.server`) compiles this table into
its route patterns and the client (:mod:`repro.serve.client`) formats its
path templates, so neither holds a path of its own to drift with.

Request bodies and responses are plain JSON.  A submission body is any of
the three scenario document shapes the rest of the repository already
accepts (a flat field mapping, an explicit ``scenarios`` list, or a
cartesian ``matrix`` — see ``docs/scenarios.md``); it expands into one job
per scenario.  Errors are :class:`ProtocolError` values carrying the HTTP
status to respond with and the same actionable message the scenario layer
and system registry raise locally — a capability violation over HTTP reads
exactly like one from ``repro run``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from repro.runner.scenario import ScenarioError, ScenarioSpec, scenarios_from_mapping

__all__ = [
    "PROTOCOL_VERSION",
    "ENDPOINTS",
    "JOB_STATES",
    "TERMINAL_STATES",
    "ProtocolError",
    "parse_submit_document",
    "job_payload",
    "error_payload",
]

#: Version stamped into every response envelope; bump on incompatible change.
PROTOCOL_VERSION = 1

# -- job lifecycle ----------------------------------------------------------

#: Every state a job can be in.  ``queued -> running -> done`` is the happy
#: path; ``failed`` ends a job whose computation raised (or whose worker
#: process died past its retry budget) and ``cancelled`` ends one stopped by
#: ``POST /v1/jobs/{job_id}/cancel`` before it finished.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves; ``wait()``/drain loops poll for these.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class Endpoint:
    """One HTTP endpoint: its short name, method, and path template."""

    name: str
    method: str
    path: str
    description: str


#: The complete endpoint surface, by short name.  ``{job_id}`` / ``{key}``
#: are path parameters; everything else is literal.
ENDPOINTS: Mapping[str, Endpoint] = {
    "submit": Endpoint(
        "submit",
        "POST",
        "/v1/runs",
        "submit a scenario document (single spec, list, or matrix); one job per scenario",
    ),
    "job_status": Endpoint(
        "job_status",
        "GET",
        "/v1/jobs/{job_id}",
        "job state plus streamed per-round progress",
    ),
    "job_cancel": Endpoint(
        "job_cancel",
        "POST",
        "/v1/jobs/{job_id}/cancel",
        "cancel a queued or running job",
    ),
    "result": Endpoint(
        "result",
        "GET",
        "/v1/results/{key}",
        "full-fidelity run record from the content-addressed store",
    ),
    "healthz": Endpoint(
        "healthz",
        "GET",
        "/v1/healthz",
        "queue depth, worker liveness, and cache-hit counters",
    ),
}

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class ProtocolError(ValueError):
    """A request the server must reject, carrying the HTTP status to use."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = int(status)


def validate_result_key(key: str) -> str:
    """Check a ``/v1/results/{key}`` path parameter is a plausible content key."""
    if not _KEY_RE.match(key):
        raise ProtocolError(
            f"malformed result key {key!r}: expected 64 lowercase hex digits "
            "(a repro.api.spec_key content address)",
            status=400,
        )
    return key


def parse_submit_document(payload: object) -> list[ScenarioSpec]:
    """Expand a ``POST /v1/runs`` body into validated scenario specs.

    The body must be a JSON object in one of the three scenario document
    shapes.  Validation failures — unknown fields, unknown systems,
    capability-invalid axes — surface as :class:`ProtocolError` 422 with the
    registry's actionable message intact, so the HTTP client reads the same
    guidance a local ``repro run`` would print.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            "a submission body must be a JSON object holding a scenario "
            f"document (see docs/scenarios.md), got {type(payload).__name__}",
            status=400,
        )
    try:
        specs = scenarios_from_mapping(dict(payload), default_name="submitted")
    except ScenarioError as exc:
        raise ProtocolError(str(exc), status=422) from exc
    if not specs:
        raise ProtocolError("the submitted document expands to zero scenarios", status=422)
    return specs


def job_payload(job) -> dict:
    """The JSON form of one job (the ``GET /v1/jobs/{job_id}`` body).

    ``job`` is a :class:`repro.serve.jobs.Job`; the payload carries identity
    (``job_id``, ``spec_key``, scenario name and system), lifecycle
    (``state``, ``error``, ``attempts``), streamed progress
    (``rounds_done`` / ``total_rounds``), and the dedup provenance flags
    (``deduped`` — collapsed onto an in-flight identical submission;
    ``cached`` — served read-through from the store without computing).
    ``result_key`` appears once the job is done and names the record
    ``GET /v1/results/{key}`` serves.
    """
    payload = {
        "job_id": job.id,
        "spec_key": job.key,
        "name": job.spec.name,
        "system": job.spec.system,
        "state": job.state,
        "rounds_done": job.rounds_done,
        "total_rounds": job.total_rounds,
        "attempts": job.attempts,
        "cached": job.cached,
        "error": job.error,
        "worker_pid": job.worker_pid,
    }
    if job.state == "done":
        payload["result_key"] = job.key
    return payload


def error_payload(message: str, *, status: int) -> dict:
    """The JSON body of every error response."""
    return {"error": str(message), "status": int(status)}
