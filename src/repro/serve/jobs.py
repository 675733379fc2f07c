"""The job queue: admission, single-flight dedup, and lifecycle tracking.

Every accepted submission becomes a :class:`Job` keyed by its scenario's
content address (:func:`repro.store.keys.spec_key`).  The queue sits *in
front of* the write-through run store and enforces the two serving
guarantees:

* **read-through** — a spec whose record already exists in the store is
  admitted as an already-``done`` job (``cached=True``) without touching a
  worker, so a stored run costs one store lookup;
* **single-flight** — while a job for key ``K`` is queued or running, every
  further submission of ``K`` returns *that* job (``deduped=True``) instead
  of enqueuing another computation.  The in-flight registry is keyed by
  content address, so "identical" means identical in every field that can
  affect the result (seed and system capability fingerprint included).

All state transitions happen under one lock, so the worker pool
(:mod:`repro.serve.workers`) and the HTTP handler threads
(:mod:`repro.serve.server`) can share the queue freely.  Cancellation is
cooperative for running jobs: :meth:`JobQueue.cancel` flags the job and the
executing worker observes the flag between rounds (or terminates its child
process), then reports the terminal state back through :meth:`JobQueue.finish`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.runner.scenario import ScenarioSpec
from repro.serve.protocol import JOB_STATES, TERMINAL_STATES
from repro.store.keys import spec_key

__all__ = ["Job", "JobQueue"]


@dataclass
class Job:
    """One tracked unit of work: a scenario submission and its lifecycle."""

    id: str
    spec: ScenarioSpec
    key: str
    state: str = "queued"
    error: str | None = None
    rounds_done: int = 0
    total_rounds: int = 0
    attempts: int = 0
    #: True when the job was answered read-through from the store (no compute).
    cached: bool = False
    #: PID of the subprocess currently computing this job (process isolation
    #: only) — exposed through the status endpoint so fault-injection tests
    #: can target the right process.
    worker_pid: int | None = None
    #: Set by :meth:`JobQueue.cancel`; workers observe it between rounds.
    cancel_requested: bool = False

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES


class JobQueue:
    """Thread-safe FIFO of jobs with content-key single-flight dedup.

    Parameters
    ----------
    store:
        The server's :class:`~repro.store.runstore.RunStore`.  Consulted at
        admission for the read-through path; may be ``None`` in tests, which
        disables read-through (every submission computes).
    """

    def __init__(self, store=None):
        self._store = store
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        #: Content key -> the queued/running job computing it (single-flight).
        self._inflight: dict[str, Job] = {}
        self._seq = 0
        #: Submissions collapsed onto an in-flight identical job.
        self.singleflight_hits = 0
        #: Submissions answered read-through from the store at admission.
        self.readthrough_hits = 0

    # -- admission ------------------------------------------------------
    def submit(self, spec: ScenarioSpec) -> tuple[Job, bool]:
        """Admit ``spec``; returns ``(job, deduped)``.

        ``deduped`` is True when the returned job is an existing in-flight
        one for the same content key (the submission joined it instead of
        enqueuing a second computation).
        """
        key = spec_key(spec)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.singleflight_hits += 1
                return existing, True
            job = self._new_job(spec, key)
            if self._store is not None and self._store.contains(spec):
                job.state = "done"
                job.cached = True
                job.rounds_done = job.total_rounds
                self.readthrough_hits += 1
                return job, False
            self._inflight[key] = job
            self._pending.append(job)
            self._not_empty.notify()
            return job, False

    def _new_job(self, spec: ScenarioSpec, key: str) -> Job:
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:06d}",
            spec=spec,
            key=key,
            total_rounds=spec.num_rounds,
        )
        self._jobs[job.id] = job
        return job

    # -- worker side ----------------------------------------------------
    def next_job(self, timeout: float | None = None) -> Job | None:
        """Pop the next queued job (blocking up to ``timeout``), mark it running."""
        with self._not_empty:
            if not self._pending:
                self._not_empty.wait(timeout)
            if not self._pending:
                return None
            job = self._pending.popleft()
            job.state = "running"
            job.attempts += 1
            return job

    def requeue(self, job: Job) -> None:
        """Put a crashed job back at the front of the queue for a retry."""
        with self._lock:
            job.state = "queued"
            job.worker_pid = None
            job.rounds_done = 0
            self._pending.appendleft(job)
            self._not_empty.notify()

    def finish(self, job: Job, state: str, *, error: str | None = None) -> None:
        """Move ``job`` to a terminal ``state`` and release its flight slot."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        with self._lock:
            job.state = state
            job.error = error
            job.worker_pid = None
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._not_empty.notify_all()

    # -- client side ----------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        """The job with ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job: Job) -> str:
        """Request cancellation; returns the outcome.

        ``"cancelled"``: the job was still queued and is terminally cancelled
        now.  ``"cancelling"``: the job is running; its worker observes the
        flag between rounds (or terminates its child process) and finishes it
        as cancelled shortly.  ``"finished"``: the job already reached a
        terminal state — nothing to cancel (the HTTP layer answers 409).
        Note a job deduped across several submitters is one computation:
        cancelling it cancels it for all of them.
        """
        with self._lock:
            if job.finished:
                return "finished"
            job.cancel_requested = True
            if job.state == "queued":
                try:
                    self._pending.remove(job)
                except ValueError:
                    pass  # a worker popped it concurrently; treat as running
                else:
                    job.state = "cancelled"
                    if self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                    self._not_empty.notify_all()
                    return "cancelled"
            return "cancelling"

    # -- observability --------------------------------------------------
    def depth(self) -> int:
        """Number of jobs waiting for a worker."""
        with self._lock:
            return len(self._pending)

    def counts(self) -> dict[str, int]:
        """Job count per lifecycle state (all states present, zeros included)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out
