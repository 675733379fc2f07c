"""Parallel execution of Procedure I (local updates) across clients.

The seed implementation ran every selected client's local update in a serial
Python list comprehension.  :class:`ParallelExecutor` turns that fan-out into
a pluggable backend:

* ``serial`` — the original loop, bit-identical to the seed behaviour and the
  default everywhere (tests, CLI, benchmarks);
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`; NumPy releases
  the GIL inside large kernels, so threads overlap the matrix work;
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; client
  objects (data shard, RNG, and the shared model workspace, which travels as
  its factory and builds one scratch model per worker on first use) are
  shipped to the workers once at pool creation and only the per-round inputs
  travel per task;
* ``cohort`` — no per-client fan-out: the selected clients are grouped into
  same-shape cohorts and trained as stacked ``(clients, batch, features)``
  matrix ops by :class:`~repro.fl.cohort.CohortTrainer`, which removes the
  per-client Python loop entirely (the path that scales to 100k+ clients).
  A chunk too wide for one gathered part is sharded by rows over the
  coordinator and W - 1 forked helper processes, which write one shared
  parameter buffer in place (W: ``max_workers``, or by default as many
  processes as multi-threaded BLAS leaves CPUs for).

Determinism is preserved across all backends because every stochastic
draw of a local update comes from the *owning client's* private RNG stream
(see :mod:`repro.utils.rng`): streams never interleave, so the execution order
of clients cannot change the numbers.  For the process backend the client RNG
state is shipped with each task and the advanced state is restored onto the
coordinator's client object afterwards, so a process-backed run consumes
exactly the same stream positions as a serial one and histories stay
bit-identical between backends.  The cohort backend draws each client's
permutations from the client's own stream and uses kernels chosen for
bit-identical floating-point results (see :mod:`repro.nn.cohort`), so it
joins the same bit-exactness contract.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig
from repro.fl.cohort import CohortTrainer
from repro.utils.validation import check_choice, check_positive

__all__ = [
    "EXECUTOR_BACKENDS",
    "ParallelExecutor",
    "check_executor_settings",
    "resolve_worker_count",
]

#: The supported fan-out backends, in increasing order of isolation; the
#: vectorized ``cohort`` backend replaces fan-out with stacked matrix ops.
EXECUTOR_BACKENDS = ("serial", "thread", "process", "cohort")


def check_executor_settings(backend: str, workers: int | None) -> None:
    """Validate a (backend, worker-count) pair: the one rule behind configs and the executor."""
    check_choice("executor_backend", backend, EXECUTOR_BACKENDS)
    if workers is not None:
        check_positive("executor_workers", workers)


def resolve_worker_count(max_workers: int | None) -> int:
    """Resolve ``max_workers`` (``None`` means one worker per CPU this process may run on)."""
    if max_workers is None:
        # The affinity mask, not ``os.cpu_count()``: a pinned process (taskset,
        # a container's cpuset) must not start more workers than it has CPUs.
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    return int(check_positive("executor_workers", max_workers))


def _blas_threads() -> int:
    """Threads one BLAS call may use: OpenBLAS's and MKL's pins, else one per usable CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return resolve_worker_count(None)


# -- process-backend worker side ---------------------------------------------
# The pool initializer installs the full client map in each worker process;
# per-task payloads then only carry (client_id, global parameters, RNG state).
_WORKER_CLIENTS: dict[int, FLClient] = {}


def _process_pool_init(clients: dict[int, FLClient]) -> None:
    global _WORKER_CLIENTS
    _WORKER_CLIENTS = clients


def _process_local_update(
    client_id: int,
    global_parameters: np.ndarray,
    rng_state: dict,
    local_config: LocalTrainingConfig,
) -> tuple[ClientUpdate, dict]:
    """Run one client's local update inside a worker process.

    The caller-provided RNG state makes the worker consume exactly the stream
    positions the coordinator's client would have consumed; the advanced state
    travels back so the coordinator can stay in sync.
    """
    client = _WORKER_CLIENTS[client_id]
    client.rng.bit_generator.state = rng_state
    update = client.local_update(global_parameters, local_config)
    return update, client.rng.bit_generator.state


class ParallelExecutor:
    """Fans ``FLClient.local_update`` out over the selected clients.

    Parameters
    ----------
    backend:
        One of :data:`EXECUTOR_BACKENDS`.
    max_workers:
        Worker count for the thread/process backends (default: the CPUs
        this process may run on), and the process count a cohort chunk is
        sharded over (default: those CPUs divided by the threads each BLAS
        call may use, so that W processes never run more BLAS threads than
        there are CPUs — unpinned, that is one process).

    Pools are created lazily on first use and reused across rounds; call
    :meth:`close` (or use the executor as a context manager) to release them.
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None) -> None:
        check_executor_settings(backend, max_workers)
        self.backend = backend
        self.max_workers = resolve_worker_count(max_workers)
        # Every cohort process runs BLAS: unless told otherwise, do not let W
        # processes of multi-threaded BLAS oversubscribe the CPUs (two of
        # two-thread OpenBLAS ran a 100k-client round 10 % slower than one).
        self._cohort_workers = (
            self.max_workers if max_workers is not None
            else max(1, self.max_workers // _blas_threads())
        )
        self._pool: Executor | None = None
        self._pool_clients_key: int | None = None
        self._cohort: CohortTrainer | None = None

    # ------------------------------------------------------------------
    def run_local_updates(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        """Run Procedure I for ``selected`` and return updates in that order."""
        if self.backend == "serial":
            return [
                clients[cid].local_update(global_parameters, local_config)
                for cid in selected
            ]
        if self.backend == "thread":
            pool = self._ensure_thread_pool()
            futures = [
                pool.submit(clients[cid].local_update, global_parameters, local_config)
                for cid in selected
            ]
            return [f.result() for f in futures]
        if self.backend == "cohort":
            return self._ensure_cohort().run_local_updates(
                clients, selected, global_parameters, local_config
            )
        return self._run_process(clients, selected, global_parameters, local_config)

    def iter_update_blocks(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ):
        """Stream trained :class:`~repro.fl.cohort.CohortBlock` chunks (cohort only).

        The streaming form never materialises one ``ClientUpdate`` per client,
        which is what bounds memory for 100k+-client rounds.
        """
        if self.backend != "cohort":
            raise ValueError(
                f"iter_update_blocks requires the 'cohort' backend, got {self.backend!r}"
            )
        return self._ensure_cohort().iter_update_blocks(
            clients, selected, global_parameters, local_config
        )

    def evaluate_population(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        parameters: np.ndarray,
    ) -> list[float]:
        """Batched per-client evaluation of shared ``parameters`` (cohort only)."""
        if self.backend != "cohort":
            raise ValueError(
                f"evaluate_population requires the 'cohort' backend, got {self.backend!r}"
            )
        return self._ensure_cohort().evaluate_population(clients, selected, parameters)

    def _run_process(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        pool = self._ensure_process_pool(clients)
        futures = [
            pool.submit(
                _process_local_update,
                cid,
                global_parameters,
                clients[cid].rng.bit_generator.state,
                local_config,
            )
            for cid in selected
        ]
        updates: list[ClientUpdate] = []
        for cid, future in zip(selected, futures):
            update, rng_state = future.result()
            # Re-sync the coordinator's client with the stream consumption and
            # bookkeeping that happened in the worker.
            clients[cid].rng.bit_generator.state = rng_state
            clients[cid].rounds_participated += 1
            updates.append(update)
        return updates

    # -- pool management ------------------------------------------------
    def _ensure_cohort(self) -> CohortTrainer:
        if self._cohort is None:
            self._cohort = CohortTrainer(max_workers=self._cohort_workers)
        return self._cohort

    def _ensure_thread_pool(self) -> Executor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-local-update"
            )
        return self._pool

    def _ensure_process_pool(self, clients: dict[int, FLClient]) -> Executor:
        key = id(clients)
        if self._pool is not None and self._pool_clients_key != key:
            # A different client population: the workers' cached clients are
            # stale, so the pool must be rebuilt.
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=ctx,
                initializer=_process_pool_init,
                initargs=(dict(clients),),
            )
            self._pool_clients_key = key
        return self._pool

    def close(self) -> None:
        """Shut down any worker pool or cohort helper this executor created."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_clients_key = None
        if self._cohort is not None:
            self._cohort.close()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(backend={self.backend!r}, max_workers={self.max_workers})"
