"""The experiment service: a long-running HTTP daemon over engine + store.

:class:`ReproServer` assembles the pieces this repository already has into a
serving stack:

* the **content-addressed run store** is the system of record — results are
  durable, restart-safe, and shared with the CLI/benchmarks;
* the **job queue** admits submissions with read-through (stored runs answer
  without computing) and single-flight dedup (concurrent identical
  submissions collapse into one computation);
* the **worker pool** drains the queue through one shared, lock-counted
  :class:`~repro.runner.engine.ExperimentEngine`;
* a stdlib :class:`~http.server.ThreadingHTTPServer` speaks the JSON
  protocol of :mod:`repro.serve.protocol` (endpoint table, job lifecycle,
  error shapes) with HTTP/1.1 keep-alive, and keeps a small in-memory cache
  of rendered result payloads — records are content-addressed and immutable,
  so a byte cache keyed by content key can never serve stale data, and a
  stored-run request stays sub-millisecond.

``repro serve --port N --workers K`` is the CLI face;
:func:`repro.api.serve` boots one in-process (the pattern the tests and the
throughput benchmark use).  See ``docs/serve.md`` for the endpoint
reference and dedup semantics.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.runner.engine import ExperimentEngine
from repro.systems.registry import (
    SystemCapabilities,
    capability_fingerprint,
    get_system,
    system_names,
)
from repro.serve.jobs import JobQueue
from repro.serve.protocol import (
    ENDPOINTS,
    PROTOCOL_VERSION,
    ProtocolError,
    error_payload,
    job_payload,
    parse_submit_document,
    validate_result_key,
)
from repro.serve.workers import WorkerPool
from repro.store.runstore import RunStore, RunStoreError

__all__ = ["ReproServer"]

#: Access lines go here at DEBUG; no handler is installed by this package.
_LOG = logging.getLogger("repro.serve")

#: Rendered result payloads kept in memory (immutable, content-addressed).
_RESULT_CACHE_SIZE = 256

#: The largest request body read, in bytes: a scenario document is a few KB.
MAX_BODY_BYTES = 1 << 20

#: Seconds a declared request body may take to arrive once its headers have:
#: a body shorter than its ``Content-Length`` must not pin a handler thread.
BODY_DEADLINE_S = 10.0

#: The protocol's endpoint table compiled for routing: each path template as a
#: pattern over the normalised request path, a ``{parameter}`` matching one
#: segment.  ``ReproServer.handle_<endpoint name>`` answers the match.
_ROUTES = tuple(
    (endpoint, re.compile(re.sub(r"\{\w+\}", "([^/]+)", endpoint.path)))
    for endpoint in ENDPOINTS.values()
)


class ReproServer:
    """The HTTP/JSON experiment service (see ``docs/serve.md``).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` — the tests and the benchmark do).
    store:
        The content-addressed store results live in: a
        :class:`~repro.store.runstore.RunStore`, a directory path, or
        ``None`` for the default ``results/store/``.
    workers:
        Worker count draining the job queue.
    isolation:
        ``"thread"`` (inline execution) or ``"process"`` (one supervised
        child process per job) — :mod:`repro.serve.workers`.
    max_retries:
        How many times a job whose worker process died is requeued before
        being reported ``failed`` (process isolation only).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: "RunStore | str | Path | None" = None,
        workers: int = 2,
        isolation: str = "thread",
        max_retries: int = 1,
    ):
        if not isinstance(store, RunStore):
            store = RunStore() if store is None else RunStore(store)
        self.store = store
        self.engine = ExperimentEngine(store=store, reuse_cached=True)
        self.queue = JobQueue(store=store)
        self.pool = WorkerPool(
            self.queue,
            self.engine,
            workers=workers,
            isolation=isolation,
            max_retries=max_retries,
        )
        self._result_cache: OrderedDict[str, bytes] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._started = False
        self._server_thread: threading.Thread | None = None

        app = self

        class Handler(_RequestHandler):
            server_app = app

        self.httpd = _HTTPServer((host, int(port)), Handler)
        self.host = self.httpd.server_address[0]
        self.port = int(self.httpd.server_address[1])

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Start the worker pool and serve HTTP in a background thread."""
        if self._started:
            return self
        self.pool.start()
        self._server_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        self._started = True
        return self

    def serve_forever(self) -> None:
        """Start and block until :meth:`close` (or KeyboardInterrupt) — the CLI path."""
        self.pool.start()
        self._started = True
        self.httpd.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Shut down the HTTP listener and stop the workers (idempotent)."""
        self.httpd.shutdown()
        self.pool.stop()
        self.httpd.server_close()
        if self._server_thread is not None:
            self._server_thread.join(5.0)
            self._server_thread = None
        self._started = False

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling (called from handler threads) ------------------
    def handle_submit(self, payload: object) -> tuple[int, dict]:
        specs = parse_submit_document(payload)
        jobs = []
        for spec in specs:
            job, deduped = self.queue.submit(spec)
            entry = job_payload(job)
            entry["deduped"] = deduped
            jobs.append(entry)
        body = {"protocol_version": PROTOCOL_VERSION, "jobs": jobs}
        if len(jobs) == 1:
            body["job_id"] = jobs[0]["job_id"]
        return 202, body

    def handle_job_status(self, job_id: str) -> tuple[int, dict]:
        job = self.queue.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", status=404)
        return 200, job_payload(job)

    def handle_job_cancel(self, job_id: str) -> tuple[int, dict]:
        job = self.queue.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", status=404)
        outcome = self.queue.cancel(job)
        if outcome == "finished":
            raise ProtocolError(
                f"job {job_id} already finished as {job.state!r}; nothing to cancel",
                status=409,
            )
        body = job_payload(job)
        body["cancel"] = outcome
        return 202, body

    def handle_result(self, key: str) -> tuple[int, bytes]:
        """The record stored under ``key`` (bytes, served from the hot cache)."""
        validate_result_key(key)
        with self._cache_lock:
            cached = self._result_cache.get(key)
            if cached is not None:
                self._result_cache.move_to_end(key)
                return 200, cached
        # The document as stored, once ``load`` has accepted it (an unreadable,
        # stale-schema or unloadable record is a 404), with the sidecar's
        # membership lists inlined so the record is self-contained on the wire.
        try:
            stored = self.store.load(key)
            payload = json.loads(stored.path.read_text(encoding="utf-8"))
        except (RunStoreError, OSError) as exc:
            raise ProtocolError(str(exc), status=404) from exc
        payload.pop("arrays", None)
        for row, record in zip(payload["history"]["rounds"], stored.result.history.rounds):
            for name, value in row.items():
                if isinstance(value, dict) and "__npz__" in value:
                    row[name] = getattr(record, name)
        payload["protocol_version"] = PROTOCOL_VERSION
        rendered = json.dumps(payload, sort_keys=True).encode("utf-8")
        with self._cache_lock:
            self._result_cache[key] = rendered
            while len(self._result_cache) > _RESULT_CACHE_SIZE:
                self._result_cache.popitem(last=False)
        return 200, rendered

    def handle_healthz(self) -> tuple[int, dict]:
        counts = self.queue.counts()
        # The registered-system roster with capability fingerprints: a thin
        # client can check, before submitting, that the server runs the same
        # system implementations it validated against (a fingerprint drift
        # means cached results over there would not match local recomputes).
        systems = {
            name: {
                "fingerprint": capability_fingerprint(name),
                "capabilities": {
                    f.name: getattr(get_system(name).capabilities, f.name)
                    for f in dataclasses.fields(SystemCapabilities)
                },
            }
            for name in system_names()
        }
        return 200, {
            "status": "ok",
            "systems": systems,
            "protocol_version": PROTOCOL_VERSION,
            "queue_depth": self.queue.depth(),
            "jobs": counts,
            "workers": {
                "total": self.pool.workers,
                "alive": self.pool.alive_workers(),
                "isolation": self.pool.isolation,
            },
            "engine": {
                "runs_computed": self.engine.runs_computed,
                "cache_hits": self.engine.cache_hits,
                "round_evaluations": self.engine.round_evaluations,
            },
            "singleflight_hits": self.queue.singleflight_hits,
            "readthrough_hits": self.queue.readthrough_hits,
            "store_root": str(self.store.root),
        }


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default backlog (5) resets connections under a burst of
    # simultaneous clients; the stress tests open 16 at once.
    request_queue_size = 128


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning :class:`ReproServer` (keep-alive)."""

    server_app: ReproServer  # set by the ReproServer-local subclass
    protocol_version = "HTTP/1.1"
    # Headers and body leave as separate small writes; with Nagle on, the
    # second write stalls ~40 ms behind the peer's delayed ACK on keep-alive
    # connections — three orders of magnitude over the read-latency budget.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """The access line, to the ``repro.serve`` logger at DEBUG instead of stderr.

        No handler is installed here: whoever runs the daemon configures
        logging.  Off (the default), a request pays this one level check.
        """
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug("%s " + format, self.address_string(), *args)

    def _send(self, status: int, body: "dict | bytes") -> None:
        """Answer ``body`` as JSON; ``bytes`` are a document rendered earlier (the result cache)."""
        rendered = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(rendered)))
        self.end_headers()
        self.wfile.write(rendered)

    def _read_body(self) -> bytes:
        """The request body; read even when ignored (cancel), so keep-alive stays in sync.

        A ``Content-Length`` that is not a decimal byte count (400;
        ``rfile.read(-1)`` would block until the peer closes) or exceeds
        :data:`MAX_BODY_BYTES` (413; the read would allocate it, or wait for
        bytes that never come) is refused before anything is read, and the
        connection is closed: its framing is unknown.  A body that has not
        arrived :data:`BODY_DEADLINE_S` seconds after its headers answers 408
        and closes the connection too; the socket's own timeout is restored
        after the read, so an idle keep-alive connection is untouched.
        """
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise ProtocolError(
                f"Content-Length must be a non-negative integer, got {declared!r}", status=400
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        deadline = time.monotonic() + BODY_DEADLINE_S
        idle_timeout = self.connection.gettimeout()
        parts = []
        try:
            while length:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError
                self.connection.settimeout(left)
                part = self.rfile.read1(length)
                if not part:
                    break  # the peer closed early: a short body, refused by its parser
                parts.append(part)
                length -= len(part)
        except TimeoutError:
            self.close_connection = True
            raise ProtocolError(
                f"request body did not arrive within {BODY_DEADLINE_S:g} s", status=408
            ) from None
        finally:
            self.connection.settimeout(idle_timeout)
        return b"".join(parts)

    def _read_json_body(self) -> object:
        raw = self._read_body()
        if not raw:
            raise ProtocolError("request body is empty; expected a JSON object", status=400)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}", status=400) from exc

    def _dispatch(self, method: str) -> None:
        app = self.server_app
        # The query string and empty segments (a trailing or doubled slash) are ignored.
        path = "/" + "/".join(p for p in self.path.split("?")[0].split("/") if p)
        try:
            for endpoint, pattern in _ROUTES:
                match = pattern.fullmatch(path) if endpoint.method == method else None
                if match is not None:
                    break
            else:
                raise ProtocolError(
                    f"no such endpoint: {method} {self.path} (see docs/serve.md)",
                    status=404,
                )
            handler = getattr(app, f"handle_{endpoint.name}")
            if endpoint.name == "submit":
                status, body = handler(self._read_json_body())
            else:
                if method == "POST":
                    self._read_body()
                status, body = handler(*match.groups())
        except ProtocolError as exc:
            status, body = exc.status, error_payload(str(exc), status=exc.status)
        except Exception as exc:  # noqa: BLE001 - a handler bug must answer 500, not hang
            status, body = 500, error_payload(f"{type(exc).__name__}: {exc}", status=500)
        self._send(status, body)

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("POST")
