"""The worker pool: N workers draining the job queue.

Each worker is a thread that pops jobs from the :class:`~repro.serve.jobs.JobQueue`
and executes them through the shared :class:`~repro.runner.engine.ExperimentEngine`
(whose counters are lock-protected precisely so this sharing is safe).  Two
isolation modes:

``thread`` (default)
    The job runs inline in the worker thread via
    :meth:`~repro.runner.engine.ExperimentEngine.run_streaming` — lowest
    latency, shared dataset memoisation, cooperative cancellation between
    rounds.

``process``
    The worker thread supervises one child **process** per job (spawn
    context, so no fork-with-threads hazards).  The child computes the run
    with its own engine, writes the record into the shared content-addressed
    store, and streams per-round progress over a pipe.  A child that dies
    mid-job (killed, OOM, crash) is detected by the supervisor: the job is
    requeued up to ``max_retries`` times and then reported ``failed`` with
    the exit signal in the error message — never left hanging.  Cancellation
    terminates the child.

Either way the record lands in the store under the job's content key, so
the HTTP layer serves results identically in both modes.
"""

from __future__ import annotations

import multiprocessing as mp
import threading

from repro.runner.engine import ExperimentEngine, RunCancelled
from repro.serve.jobs import Job, JobQueue

__all__ = ["ISOLATION_MODES", "WorkerPool"]

#: How a worker executes a job: inline in its thread, or in a child process.
ISOLATION_MODES = ("thread", "process")

#: How long :meth:`WorkerPool.stop` waits for each worker thread to finish.
STOP_JOIN_TIMEOUT_S = 10.0


class WorkerCrash(RuntimeError):
    """A job's worker process died before reporting a result."""


def _subprocess_job(store_root: str, spec_mapping: dict, conn) -> None:
    """Child-process entry point: compute one run, write-through to the store.

    Runs in a spawned interpreter, so everything arrives picklable: the
    store root as a path and the spec as its mapping form.  Progress events
    ``("progress", done, total)`` stream over ``conn``; the final
    ``("done", rounds)`` message tells the supervisor the record was
    persisted (the write happens *before* the message, so a kill between
    them at worst recomputes).
    """
    from repro.runner.scenario import ScenarioSpec
    from repro.store.runstore import RunStore

    spec = ScenarioSpec.from_mapping(spec_mapping)
    engine = ExperimentEngine(store=RunStore(store_root), reuse_cached=True)

    def progress(done: int, total: int) -> None:
        try:
            conn.send(("progress", done, total))
        except (BrokenPipeError, OSError):  # supervisor went away; keep computing
            pass

    engine.run_streaming(spec, progress=progress)
    conn.send(("done", engine.runs_computed, engine.round_evaluations, engine.cache_hits))
    conn.close()


class WorkerPool:
    """N worker threads executing queue jobs through one shared engine."""

    def __init__(
        self,
        queue: JobQueue,
        engine: ExperimentEngine,
        *,
        workers: int = 2,
        isolation: str = "thread",
        max_retries: int = 1,
    ):
        if isolation not in ISOLATION_MODES:
            raise ValueError(
                f"unknown isolation mode {isolation!r}; expected one of: "
                + ", ".join(ISOLATION_MODES)
            )
        if int(workers) <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if isolation == "process" and engine.store is None:
            raise ValueError(
                "process isolation requires the engine to have a run store: "
                "child processes ship results through it"
            )
        self.queue = queue
        self.engine = engine
        self.isolation = isolation
        self.max_retries = int(max_retries)
        self.workers = int(workers)
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop accepting work and join the workers (up to
        :data:`STOP_JOIN_TIMEOUT_S` each).

        Running jobs observe the stop flag through their cancellation check
        (thread mode) or child termination (process mode) and finish as
        cancelled.
        """
        self._stopping.set()
        for thread in self._threads:
            thread.join(STOP_JOIN_TIMEOUT_S)
        self._threads.clear()

    def alive_workers(self) -> int:
        """Number of worker threads currently alive (healthz liveness)."""
        return sum(1 for t in self._threads if t.is_alive())

    # -- execution ------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.next_job(timeout=0.1)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            if self.isolation == "process":
                self._run_in_subprocess(job)
            else:
                self._run_inline(job)
        except RunCancelled:
            self.queue.finish(job, "cancelled", error="cancelled by request")
        except WorkerCrash as exc:
            if job.attempts <= self.max_retries and not job.cancel_requested:
                self.queue.requeue(job)
            else:
                self.queue.finish(
                    job,
                    "failed",
                    error=f"{exc} (after {job.attempts} attempt(s))",
                )
        except Exception as exc:  # noqa: BLE001 - a job failure must never kill the worker
            self.queue.finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            self.queue.finish(job, "done")

    def _run_inline(self, job: Job) -> None:
        def progress(done: int, total: int) -> None:
            job.rounds_done = done
            job.total_rounds = total

        def should_stop() -> bool:
            return job.cancel_requested or self._stopping.is_set()

        self.engine.run_streaming(job.spec, progress=progress, should_stop=should_stop)
        job.rounds_done = job.total_rounds

    def _run_in_subprocess(self, job: Job) -> None:
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_subprocess_job,
            args=(str(self.engine.store.root), job.spec.to_mapping(), child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        job.worker_pid = process.pid
        child_counts: tuple[int, int, int] | None = None
        try:
            while True:
                if job.cancel_requested or self._stopping.is_set():
                    process.terminate()
                    process.join(5.0)
                    raise RunCancelled(f"job {job.id} cancelled; child terminated")
                if parent_conn.poll(0.05):
                    try:
                        message = parent_conn.recv()
                    except EOFError:
                        break  # pipe hit EOF: the child is gone for good
                    if message[0] == "progress":
                        job.rounds_done, job.total_rounds = int(message[1]), int(message[2])
                    elif message[0] == "done":
                        child_counts = (int(message[1]), int(message[2]), int(message[3]))
                        break
                elif not process.is_alive():
                    break  # died without buffered output (poll drained first)
            process.join(10.0)
        finally:
            parent_conn.close()
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.kill()
                process.join(5.0)
        if child_counts is None:
            raise WorkerCrash(
                f"worker process for job {job.id} died mid-job "
                f"(exit code {process.exitcode})"
            )
        # The child computed with its own engine; absorb its exact counters
        # into the shared one so healthz stays truthful across isolation modes.
        runs, rounds, hits = child_counts
        self.engine.tally(runs=runs, rounds=rounds, hits=hits)
        job.rounds_done = job.total_rounds
